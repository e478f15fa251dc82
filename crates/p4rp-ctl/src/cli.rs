//! A runtime command-line interface over the controller — the analogue of
//! the prototype's runtime CLI (§5 "We implement a runtime CLI to interact
//! with the P4runpro data plane").
//!
//! Commands (one per line):
//!
//! ```text
//! deploy <inline source…>      link a program (source until end of line;
//!                              use \n escapes, or `deploy-many <file…>`
//!                              in shells)
//! deploy-many <file…>          link many source files, in order
//! revoke <name>                unlink a program
//! revoke-many <name…>          unlink many programs, in order
//! update <name> <source…>      incremental update: revoke + redeploy
//! programs                     list deployed programs
//! status                       resource-manager summary
//! status --metrics             full telemetry summary (spans, gauges,
//!                              latency, dataplane counters)
//! status --json                the same report as one JSON document
//! mem <program> <memory>       dump a program's virtual memory (non-zero)
//! memwrite <prog> <mem> <addr> <value>
//! trace on [capacity]          enable the flight recorder
//! trace off                    disable it, reporting final stats
//! trace status                 ring statistics (capacity/recorded/dropped)
//! trace dump [last <n>] [control|packets|table <gress> <stage> <table>
//!                             |flow <a.b.c.d> [port]]
//! trace journeys               per-packet journey reconstruction
//! trace export [path]          Chrome trace-event JSON (Perfetto-viewable)
//! replay [--packets <n>] [--flows <n>] [--workers <n>] [--seed <n>]
//!                              synthesize a flow mix and replay it through
//!                              the data plane; `--workers > 1` shards flows
//!                              across the parallel engine (docs/PERF.md);
//!                              each replay also cuts a time-series bucket
//! top [--once]                 per-program usage ranked by attributed
//!                              packets; enables attribution on first use
//!                              (docs/METRICS.md)
//! metrics export [path|-]      Prometheus text exposition to a file or
//!                              stdout
//! watchdog arm [--drop-ppm <n>] [--deploy-faults <n>] [--p99-ns <n>]
//!                              arm SLO thresholds; breaches emit
//!                              SloViolation trace events
//! watchdog status | disarm     inspect or drop the armed watchdog
//! series on [capacity]         start the windowed telemetry time series
//! chaos run [--seed <n>] [--faults <spec>] [--steps <n>] [--programs <n>]
//!           [--workers <n>]    seeded fault-injection campaign on a fresh
//!           [--slo-drop-ppm <n>] [--slo-deploy-faults <n>] [--slo-p99-ns <n>]
//!                              controller (spec syntax in docs/CHAOS.md,
//!                              e.g. `failop@5,reset@12,drop:insert@20`);
//!                              `--workers > 1` runs traffic on the sharded
//!                              multi-worker engine under deploy churn;
//!                              `--slo-*` arms the campaign watchdog
//! serve <addr> [--max-clients <n>] [--rate <r>] [--timeout-ns <n>]
//!                              run the persistent multi-client runtime-
//!                              control server (line-framed JSON over TCP,
//!                              one thread per session, explicit refusals;
//!                              blocks until a client sends `shutdown`;
//!                              docs/SERVER.md)
//! client <addr> <op> [...]     one-shot loopback client for `serve`:
//!                              ping | status | metrics | trace | shutdown
//!                              | deploy <src…> | revoke <name> | raw <json>
//! help                         this text
//! ```
//!
//! Every command returns its output as a `String`, so the CLI is equally
//! usable from a REPL binary, tests, or scripts.

use crate::controller::{Controller, CtlResult};
use rmt_sim::pipeline::Gress;
use rmt_sim::trace::{chrome_trace_json, filter_events, journeys, TraceConfig, TraceFilter};

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
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let result: CtlResult<String> = match cmd {
            "" | "help" => Ok(HELP.to_string()),
            "deploy" => self.deploy(rest),
            "deploy-many" => Ok(self.deploy_many(rest)),
            "revoke" => self.ctl.revoke(rest).map(|r| {
                format!("revoked `{}` in {:.2} ms", r.name, r.update_delay.as_millis_f64())
            }),
            "revoke-many" => Ok(self.revoke_many(rest)),
            "update" => self.update(rest),
            "programs" => Ok(self.programs()),
            "status" => Ok(match rest {
                "--metrics" => self.ctl.telemetry_report().summary(),
                "--json" => self.ctl.telemetry_report().to_json(),
                _ => self.status(),
            }),
            "mem" => self.mem(rest),
            "memwrite" => self.memwrite(rest),
            "trace" => Ok(self.trace_cmd(rest)),
            "replay" => Ok(self.replay_cmd(rest)),
            "top" => Ok(self.top_cmd(rest)),
            "metrics" => Ok(self.metrics_cmd(rest)),
            "watchdog" => Ok(self.watchdog_cmd(rest)),
            "series" => Ok(self.series_cmd(rest)),
            "chaos" => Ok(chaos_cmd(rest)),
            "serve" => Ok(self.serve_cmd(rest)),
            "client" => Ok(client_cmd(rest)),
            other => Ok(format!("unknown command `{other}` — try `help`")),
        };
        result.unwrap_or_else(|e| format!("error: {e}"))
    }

    fn deploy(&mut self, source: &str) -> CtlResult<String> {
        let source = source.replace("\\n", "\n");
        let reports = self.ctl.deploy(&source)?;
        Ok(reports
            .iter()
            .map(|r| {
                format!(
                    "linked `{}` (id {}): {} entries, depth {}, {} pass(es), alloc {:.2} ms, update {:.2} ms",
                    r.name,
                    r.prog_id,
                    r.entries_installed,
                    r.depth,
                    r.passes,
                    r.alloc_wall.as_secs_f64() * 1e3,
                    r.update_delay.as_millis_f64()
                )
            })
            .collect::<Vec<_>>()
            .join("\n"))
    }

    /// `deploy-many <file...>`: read every file, then deploy them in
    /// order, best-effort, reporting one line per program.
    fn deploy_many(&mut self, rest: &str) -> String {
        let paths: Vec<&str> = rest.split_whitespace().collect();
        if paths.is_empty() {
            return "usage: deploy-many <file...>".to_string();
        }
        let mut sources = Vec::with_capacity(paths.len());
        for p in &paths {
            match std::fs::read_to_string(p) {
                Ok(s) => sources.push(s),
                Err(e) => return format!("error reading {p}: {e}"),
            }
        }
        let mut out = Vec::new();
        for (p, source) in paths.iter().zip(&sources) {
            match self.ctl.deploy(source) {
                Ok(reports) => {
                    for r in reports {
                        out.push(format!(
                            "linked `{}` (id {}): {} entries, alloc {:.2} ms, \
                             apply {:.2} ms, update {:.2} ms",
                            r.name,
                            r.prog_id,
                            r.entries_installed,
                            r.alloc_wall.as_secs_f64() * 1e3,
                            r.channel_wall.as_secs_f64() * 1e3,
                            r.update_delay.as_millis_f64()
                        ));
                    }
                }
                Err(e) => out.push(format!("error in {p}: {e}")),
            }
        }
        out.join("\n")
    }

    /// `revoke-many <name...>`: one revoke per name, best-effort.
    fn revoke_many(&mut self, rest: &str) -> String {
        if rest.is_empty() {
            return "usage: revoke-many <name...>".to_string();
        }
        rest.split_whitespace()
            .map(|n| match self.ctl.revoke(n) {
                Ok(r) => {
                    format!("revoked `{}` in {:.2} ms", r.name, r.update_delay.as_millis_f64())
                }
                Err(e) => format!("error revoking `{n}`: {e}"),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn update(&mut self, rest: &str) -> CtlResult<String> {
        let (name, source) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| crate::controller::CtlError::NoSuchProgram(rest.to_string()))?;
        let source = source.replace("\\n", "\n");
        let r = self.ctl.update(name, &source)?;
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

    fn status(&self) -> String {
        let rm = self.ctl.resources();
        format!(
            "memory: {:.1}% used | rpb entries: {:.1}% used | init filters: {} | programs: {}",
            rm.memory_utilization() * 100.0,
            rm.entry_utilization() * 100.0,
            rm.init_entries_used(),
            self.ctl.deployed_programs().count()
        )
    }

    fn mem(&mut self, rest: &str) -> CtlResult<String> {
        let mut it = rest.split_whitespace();
        let (prog, mem) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
        let values = self.ctl.read_memory(prog, mem)?;
        let nonzero: Vec<String> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0)
            .take(32)
            .map(|(i, v)| format!("[{i}]={v}"))
            .collect();
        Ok(format!(
            "{}/{} buckets non-zero: {}",
            values.iter().filter(|v| **v != 0).count(),
            values.len(),
            nonzero.join(" ")
        ))
    }

    fn trace_cmd(&mut self, rest: &str) -> String {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.first().copied() {
            None | Some("status") => {
                let s = self.ctl.trace_stats();
                if s.enabled {
                    format!(
                        "tracing on: {} recorded, {} dropped, {} retained \
                         (capacity {}), {} violation(s)",
                        s.recorded, s.dropped, s.retained, s.capacity, s.violations
                    )
                } else {
                    "tracing off".to_string()
                }
            }
            Some("on") => {
                let mut cfg = TraceConfig::default();
                if let Some(cap) = parts.get(1) {
                    match cap.parse::<usize>() {
                        Ok(c) if c > 0 => cfg.capacity = c,
                        _ => return format!("bad capacity `{cap}`"),
                    }
                }
                let t = self.ctl.enable_trace(cfg);
                format!("tracing on (capacity {})", t.capacity())
            }
            Some("off") => match self.ctl.disable_trace() {
                Some(t) => {
                    let s = t.stats();
                    format!(
                        "tracing off: {} recorded, {} dropped, {} violation(s)",
                        s.recorded, s.dropped, s.violations
                    )
                }
                None => "tracing was already off".to_string(),
            },
            Some("dump") => self.trace_dump(&parts[1..]),
            Some("journeys") => match self.ctl.trace() {
                None => "tracing off".to_string(),
                Some(t) => {
                    let js = journeys(t.events());
                    if js.is_empty() {
                        "no packet journeys retained".to_string()
                    } else {
                        js.iter().map(|j| j.render()).collect::<Vec<_>>().join("\n")
                    }
                }
            },
            Some("export") => {
                let path = parts.get(1).copied().unwrap_or("results/trace.json");
                let Some(t) = self.ctl.trace() else {
                    return "tracing off".to_string();
                };
                let json = chrome_trace_json(t.events());
                let n = t.stats().retained;
                if let Some(dir) = std::path::Path::new(path).parent() {
                    if !dir.as_os_str().is_empty() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                }
                match std::fs::write(path, json) {
                    Ok(()) => format!("wrote {n} event(s) to {path}"),
                    Err(e) => format!("error writing {path}: {e}"),
                }
            }
            Some(other) => format!("unknown trace subcommand `{other}` — try `help`"),
        }
    }

    fn trace_dump(&self, args: &[&str]) -> String {
        let Some(t) = self.ctl.trace() else {
            return "tracing off".to_string();
        };
        const USAGE: &str = "usage: trace dump [last <n>] [<filter>]";
        let mut args = args;
        let mut last = None;
        if args.first() == Some(&"last") {
            // `and_then(.. parse().ok())` used to fold "missing" and
            // "unparseable" into one silent None; say which it was.
            let Some(v) = args.get(1) else {
                return USAGE.to_string();
            };
            match v.parse::<usize>() {
                Ok(n) => last = Some(n),
                Err(_) => return format!("bad count `{v}` for `last`\n{USAGE}"),
            }
            args = &args[2..];
        }
        let filter = match parse_filter(args) {
            Ok(f) => f,
            Err(usage) => return usage,
        };
        let mut evs = filter_events(t.events(), filter);
        if let Some(n) = last {
            let skip = evs.len().saturating_sub(n);
            evs.drain(..skip);
        }
        if evs.is_empty() {
            "no matching events".to_string()
        } else {
            evs.iter().map(|e| e.render()).collect::<Vec<_>>().join("\n")
        }
    }

    /// `replay [--packets <n>] [--flows <n>] [--workers <n>] [--seed <n>]`:
    /// synthesize a seeded flow mix and replay it through the data plane.
    /// With `--workers 1` (the default) this is the sequential engine —
    /// exactly the path every other command exercises; with more, flows
    /// are sharded across the parallel engine and the merged outcome is
    /// reported (the per-worker breakdown lands in `status --json`).
    fn replay_cmd(&mut self, rest: &str) -> String {
        const USAGE: &str = "usage: replay [--packets <n>] [--flows <n>] [--workers <n>] [--seed <n>]";
        let (mut packets, mut flows, mut workers, mut seed) = (2000usize, 64usize, 1usize, 1u64);
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let mut it = parts.iter();
        while let Some(flag) = it.next() {
            let Some(value) = it.next() else {
                return format!("missing value for `{flag}`\n{USAGE}");
            };
            let parsed: Result<usize, _> = value.parse();
            match (*flag, parsed) {
                ("--packets", Ok(n)) if n > 0 => packets = n,
                ("--flows", Ok(n)) if n > 0 => flows = n,
                ("--workers", Ok(n)) if n > 0 => workers = n,
                ("--seed", _) => match value.parse() {
                    Ok(n) => seed = n,
                    Err(_) => return format!("bad seed `{value}`"),
                },
                ("--packets" | "--flows" | "--workers", _) => {
                    return format!("bad value `{value}` for `{flag}`\n{USAGE}");
                }
                (other, _) => return format!("unknown flag `{other}`\n{USAGE}"),
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
        if workers <= 1 {
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
                return e;
            }
            let (tx, dropped) = r
                .stats
                .iter()
                .fold((0u64, 0u64), |(t, d), s| (t + s.tx_pkts, d + s.dropped));
            // A finished replay is a series tick and an SLO checkpoint.
            self.ctl.tick_series();
            self.ctl.slo_check();
            return format!(
                "replayed {packets} packet(s), {flows} flow(s), sequential engine: \
                 {tx} tx, {dropped} dropped"
            );
        }
        self.ctl.enable_workers(workers);
        let pr = traffic::replay::ParallelReplay::new(trace, workers);
        let shards = pr.shard_sizes();
        let pool = self.ctl.workers_mut().expect("workers just enabled");
        match pr.run(pool) {
            Ok(out) => {
                let (tx, dropped) = out
                    .stats
                    .iter()
                    .fold((0u64, 0u64), |(t, d), s| (t + s.tx_pkts, d + s.dropped));
                self.ctl.tick_series();
                self.ctl.slo_check();
                format!(
                    "replayed {packets} packet(s), {flows} flow(s) across {workers} worker(s) \
                     (shards {shards:?}): {tx} tx, {dropped} dropped, snapshot generation {} \
                     — per-worker counters in `status --json`",
                    self.ctl.channel().snapshot_generation()
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    /// `top [--once]`: per-program usage ranked by attributed packets.
    /// Enables attribution on first use, so counters accumulate from
    /// here on; `--once` is accepted for scripting symmetry (the CLI
    /// always renders exactly one frame — there is no terminal loop in
    /// the simulator).
    fn top_cmd(&mut self, rest: &str) -> String {
        match rest {
            "" | "--once" => {}
            other => return format!("unknown flag `{other}`\nusage: top [--once]"),
        }
        let first = !self.ctl.attribution_enabled();
        if first {
            self.ctl.enable_attribution();
        }
        let mut out = crate::metrics::render_top(&self.ctl.telemetry_report());
        if first {
            out.push_str("(attribution just enabled — packet counters attribute from now on)\n");
        }
        out
    }

    /// `metrics export [path|-]`.
    fn metrics_cmd(&mut self, rest: &str) -> String {
        const USAGE: &str = "usage: metrics export [path|-]";
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.first().copied() {
            Some("export") => {
                let body = crate::metrics::render_prometheus(&self.ctl.telemetry_report());
                match parts.get(1).copied() {
                    None | Some("-") => body,
                    Some(path) => {
                        if let Some(dir) = std::path::Path::new(path).parent() {
                            if !dir.as_os_str().is_empty() {
                                let _ = std::fs::create_dir_all(dir);
                            }
                        }
                        match std::fs::write(path, &body) {
                            Ok(()) => format!(
                                "wrote {} exposition line(s) to {path}",
                                body.lines().count()
                            ),
                            Err(e) => format!("error writing {path}: {e}"),
                        }
                    }
                }
            }
            _ => USAGE.to_string(),
        }
    }

    /// `watchdog arm [--drop-ppm <n>] [--deploy-faults <n>] [--p99-ns <n>]`
    /// / `watchdog status` / `watchdog disarm`.
    fn watchdog_cmd(&mut self, rest: &str) -> String {
        const USAGE: &str = "usage: watchdog arm [--drop-ppm <n>] [--deploy-faults <n>] \
                             [--p99-ns <n>] | watchdog status | watchdog disarm";
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.first().copied() {
            Some("arm") => {
                let mut t = crate::telemetry::SloThresholds::default();
                let mut it = parts[1..].iter();
                while let Some(flag) = it.next() {
                    let Some(value) = it.next() else {
                        return format!("missing value for `{flag}`\n{USAGE}");
                    };
                    let parsed: Result<u64, _> = value.parse();
                    match (*flag, parsed) {
                        ("--drop-ppm", Ok(n)) => t.max_drop_ppm = Some(n),
                        ("--deploy-faults", Ok(n)) => t.max_deploy_failures = Some(n),
                        ("--p99-ns", Ok(n)) => t.max_p99_write_ns = Some(n),
                        ("--drop-ppm" | "--deploy-faults" | "--p99-ns", _) => {
                            return format!("bad value `{value}` for `{flag}`");
                        }
                        (other, _) => return format!("unknown flag `{other}`\n{USAGE}"),
                    }
                }
                if !t.is_armed() {
                    return format!("no thresholds given\n{USAGE}");
                }
                self.ctl.arm_watchdog(t);
                // Evaluate immediately so `status` right after `arm`
                // reflects any standing breach.
                self.ctl.slo_check();
                render_watchdog(self.ctl.watchdog_status().as_ref())
            }
            None | Some("status") => render_watchdog(self.ctl.watchdog_status().as_ref()),
            Some("disarm") => match self.ctl.disarm_watchdog() {
                Some(s) => format!("watchdog disarmed after {} violation(s)", s.violations),
                None => "watchdog was not armed".to_string(),
            },
            Some(other) => format!("unknown watchdog subcommand `{other}`\n{USAGE}"),
        }
    }

    /// `series on [capacity]`: start windowed time-series collection
    /// (buckets cut on every lifecycle event and replay).
    fn series_cmd(&mut self, rest: &str) -> String {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.first().copied() {
            Some("on") => {
                let capacity = match parts.get(1) {
                    None => 256,
                    Some(c) => match c.parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => return format!("bad capacity `{c}`"),
                    },
                };
                self.ctl.enable_series(capacity);
                let s = self.ctl.series().expect("just enabled");
                format!(
                    "series on: {} point(s) retained (capacity {})",
                    s.points.len(),
                    s.capacity
                )
            }
            None | Some("status") => match self.ctl.series() {
                None => "series off".to_string(),
                Some(s) => format!(
                    "series on: {} point(s) retained (capacity {}, {} evicted)",
                    s.points.len(),
                    s.capacity,
                    s.evicted
                ),
            },
            Some(other) => format!("unknown series subcommand `{other}` — try `series on [cap]`"),
        }
    }

    fn memwrite(&mut self, rest: &str) -> CtlResult<String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() != 4 {
            return Ok("usage: memwrite <program> <memory> <addr> <value>".into());
        }
        // A bad address used to collapse to `u32::MAX` (guaranteed
        // out-of-range error) and a bad value to `0` (a silent write of
        // the wrong data) — both must be loud instead.
        let addr: u32 = match parts[2].parse() {
            Ok(a) => a,
            Err(_) => return Ok(format!("bad address `{}` for memwrite", parts[2])),
        };
        let value: u32 = match parts[3].parse() {
            Ok(v) => v,
            Err(_) => return Ok(format!("bad value `{}` for memwrite", parts[3])),
        };
        self.ctl.write_memory(parts[0], parts[1], addr, value)?;
        Ok(format!("{}:{}[{addr}] = {value}", parts[0], parts[1]))
    }

    /// `serve <addr> [--max-clients <n>] [--rate <r>] [--timeout-ns <n>]`:
    /// run the persistent runtime-control server.
    /// Blocks the calling thread until a client sends `shutdown`.
    fn serve_cmd(&mut self, rest: &str) -> String {
        const USAGE: &str =
            "usage: serve <addr> [--max-clients <n>] [--rate <r>] [--timeout-ns <n>]";
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let Some(addr) = parts.first().copied() else {
            return USAGE.to_string();
        };
        let mut cfg = crate::server::ServerConfig::default();
        let mut it = parts[1..].iter();
        while let Some(flag) = it.next() {
            let Some(value) = it.next() else {
                return format!("missing value for `{flag}`\n{USAGE}");
            };
            match *flag {
                "--max-clients" => match value.parse::<usize>() {
                    Ok(n) if n > 0 => cfg.max_clients = n,
                    _ => return format!("bad client limit `{value}` for `--max-clients`"),
                },
                "--rate" => match value.parse::<u64>() {
                    Ok(n) if n > 0 => cfg.rate = Some(n),
                    _ => return format!("bad rate `{value}` for `--rate`"),
                },
                "--timeout-ns" => match value.parse::<u64>() {
                    Ok(n) if n > 0 => cfg.request_timeout_ns = Some(n),
                    _ => return format!("bad timeout `{value}` for `--timeout-ns`"),
                },
                other => return format!("unknown flag `{other}`\n{USAGE}"),
            }
        }
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => return format!("error binding {addr}: {e}"),
        };
        let local = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        match crate::server::serve(&mut self.ctl, listener, &cfg) {
            Ok(stats) => format!(
                "server on {local} drained: {} session(s) accepted, {} request(s), \
                 {} ok / {} err / {} rejected",
                stats.accepted,
                stats.requests,
                stats.responses_ok,
                stats.responses_err,
                stats.rejected()
            ),
            Err(e) => format!("error serving on {local}: {e}"),
        }
    }
}

/// `client <addr> <op> [...]`: a one-shot loopback client for `serve`.
/// Connects, issues one request, and prints the raw JSON reply line.
fn client_cmd(rest: &str) -> String {
    const USAGE: &str = "usage: client <addr> <ping|status|metrics|trace|shutdown\
                         |deploy <src…>|revoke <name>|raw <json>>";
    let Some((addr, rest)) = rest.split_once(char::is_whitespace) else {
        return USAGE.to_string();
    };
    let rest = rest.trim();
    let mut c = match crate::server::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return format!("error connecting to {addr}: {e}"),
    };
    let (op, arg) = match rest.split_once(char::is_whitespace) {
        Some((o, a)) => (o, a.trim()),
        None => (rest, ""),
    };
    let result = match op {
        "ping" => c.ping(),
        "status" => c.status(),
        "metrics" => c.metrics(),
        "trace" => c.trace(),
        "shutdown" => c.shutdown(),
        "deploy" if !arg.is_empty() => c.deploy(&arg.replace("\\n", "\n")),
        "revoke" if !arg.is_empty() => c.revoke(arg),
        "raw" if !arg.is_empty() => c.request_line(arg),
        _ => return USAGE.to_string(),
    };
    result.unwrap_or_else(|e| format!("error: {e}"))
}

/// Render the watchdog's status line.
fn render_watchdog(status: Option<&crate::telemetry::SloStatus>) -> String {
    match status {
        None => "watchdog disarmed".to_string(),
        Some(s) => {
            let t = &s.thresholds;
            let mut limits = Vec::new();
            if let Some(v) = t.max_drop_ppm {
                limits.push(format!("drop ≤ {v} ppm"));
            }
            if let Some(v) = t.max_deploy_failures {
                limits.push(format!("deploy faults ≤ {v}"));
            }
            if let Some(v) = t.max_p99_write_ns {
                limits.push(format!("write p99 ≤ {v} ns"));
            }
            format!(
                "watchdog armed: {} | {} violation(s){}",
                limits.join(", "),
                s.violations,
                if s.breached.is_empty() {
                    String::new()
                } else {
                    format!(" | IN BREACH: {}", s.breached.join(", "))
                }
            )
        }
    }
}

/// `chaos run [--seed <n>] [--faults <spec>] [--steps <n>] [--programs <n>]
/// [--workers <n>]`: run a seeded, deterministic fault-injection campaign
/// against a fresh controller and summarise what survived. The fault spec
/// syntax is `<kind>[:<opkind>]@<index>[,…]` — see `docs/CHAOS.md`.
/// `--workers` > 1 drives injections through the sharded parallel engine.
fn chaos_cmd(rest: &str) -> String {
    const USAGE: &str = "usage: chaos run [--seed <n>] [--faults <spec>] \
                         [--steps <n>] [--programs <n>] [--workers <n>] \
                         [--slo-drop-ppm <n>] [--slo-deploy-faults <n>] [--slo-p99-ns <n>]";
    let parts: Vec<&str> = rest.split_whitespace().collect();
    if parts.first() != Some(&"run") {
        return USAGE.to_string();
    }
    let mut cfg = crate::chaos::ChaosConfig::default();
    let mut it = parts[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return format!("missing value for `{flag}`\n{USAGE}");
        };
        match *flag {
            "--seed" => match value.parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => return format!("bad seed `{value}`"),
            },
            "--steps" => match value.parse() {
                Ok(n) if n > 0 => cfg.steps = n,
                _ => return format!("bad step count `{value}`"),
            },
            "--programs" => match value.parse() {
                Ok(n) if n > 0 => cfg.programs = n,
                _ => return format!("bad program count `{value}`"),
            },
            "--faults" => match rmt_sim::fault::FaultPlan::parse_spec(value) {
                Ok(plan) => cfg.faults = plan,
                Err(e) => return format!("bad fault spec `{value}`: {e}"),
            },
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => return format!("bad worker count `{value}`"),
            },
            "--slo-drop-ppm" | "--slo-deploy-faults" | "--slo-p99-ns" => match value.parse() {
                Ok(n) => {
                    let t = cfg.watchdog.get_or_insert_with(Default::default);
                    match *flag {
                        "--slo-drop-ppm" => t.max_drop_ppm = Some(n),
                        "--slo-deploy-faults" => t.max_deploy_failures = Some(n),
                        _ => t.max_p99_write_ns = Some(n),
                    }
                }
                Err(_) => return format!("bad threshold `{value}` for `{flag}`"),
            },
            other => return format!("unknown flag `{other}`\n{USAGE}"),
        }
    }
    match crate::chaos::run(&cfg) {
        Ok(out) => {
            let a = &out.final_audit;
            format!(
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
            ) + &if cfg.watchdog.is_some() {
                format!("\nslo watchdog: {} violation(s)", out.slo_violations)
            } else {
                String::new()
            }
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Parse a `trace dump` filter: nothing (all), `control`, `packets`,
/// `table <gress> <stage> <table>`, or `flow <a.b.c.d> [port]`.
fn parse_filter(args: &[&str]) -> Result<TraceFilter, String> {
    const USAGE: &str =
        "filters: control | packets | table <gress> <stage> <table> | flow <a.b.c.d> [port]";
    match args.first().copied() {
        None => Ok(TraceFilter::All),
        Some("control") => Ok(TraceFilter::Control),
        Some("packets") => Ok(TraceFilter::Packets),
        Some("table") => {
            let gress = match args.get(1).copied() {
                Some("ingress") => Gress::Ingress,
                Some("egress") => Gress::Egress,
                Some(other) => {
                    return Err(format!("bad gress `{other}` (expected ingress|egress)\n{USAGE}"))
                }
                None => return Err(USAGE.to_string()),
            };
            // The old `and_then(.. parse().ok())` swallowed unparseable
            // stage/table numbers into the generic usage line.
            let stage = match args.get(2) {
                Some(v) => match v.parse::<u16>() {
                    Ok(n) => n,
                    Err(_) => return Err(format!("bad stage `{v}`\n{USAGE}")),
                },
                None => return Err(USAGE.to_string()),
            };
            let table = match args.get(3) {
                Some(v) => match v.parse::<u16>() {
                    Ok(n) => n,
                    Err(_) => return Err(format!("bad table `{v}`\n{USAGE}")),
                },
                None => return Err(USAGE.to_string()),
            };
            Ok(TraceFilter::Table { gress, stage, table })
        }
        Some("flow") => {
            let Some(a) = args.get(1) else {
                return Err(USAGE.to_string());
            };
            let Some(addr) = parse_ipv4(a) else {
                return Err(format!("bad address `{a}` (expected a.b.c.d)\n{USAGE}"));
            };
            let port = match args.get(2) {
                None => None,
                Some(p) => match p.parse::<u16>() {
                    Ok(p) => Some(p),
                    Err(_) => return Err(format!("bad port `{p}`\n{USAGE}")),
                },
            };
            Ok(TraceFilter::Flow { addr, port })
        }
        Some(_) => Err(USAGE.to_string()),
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

const HELP: &str = "commands: deploy <src> | deploy-many <file...> | revoke <name> | revoke-many <name...> | update <name> <src> | programs | status [--metrics|--json] | mem <prog> <mem> | memwrite <prog> <mem> <addr> <val> | trace <on [cap]|off|status|dump|journeys|export [path]> | replay [--packets <n>] [--flows <n>] [--workers <n>] [--seed <n>] | top [--once] | metrics export [path|-] | watchdog <arm [--drop-ppm <n>] [--deploy-faults <n>] [--p99-ns <n>]|status|disarm> | series <on [cap]|status> | chaos run [--seed <n>] [--faults <spec>] [--steps <n>] [--programs <n>] [--workers <n>] [--slo-drop-ppm <n>] [--slo-deploy-faults <n>] [--slo-p99-ns <n>] | serve <addr> [--max-clients <n>] [--rate <r>] [--timeout-ns <n>] | client <addr> <op> [...] | help";

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
    fn deploy_many_and_revoke_many_roundtrip() {
        let dir = std::env::temp_dir().join(format!("p4rp-cli-many-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for i in 0..4 {
            let path = dir.join(format!("p{i}.p4rp"));
            let src = format!(
                "@ m{i} 64\nprogram p{i}(<hdr.ipv4.dst, 10.0.{i}.1, 0xffffffff>) \
                 {{ LOADI(mar, 1); MEMREAD(m{i}); }}"
            );
            std::fs::write(&path, src).unwrap();
            paths.push(path.display().to_string());
        }
        let mut cli = cli();
        let out = cli.exec(&format!("deploy-many {}", paths.join(" ")));
        for i in 0..4 {
            assert!(out.contains(&format!("linked `p{i}`")), "{out}");
        }
        assert_eq!(out.lines().count(), 4, "one line per program, nothing else: {out}");
        assert_eq!(cli.ctl.deployed_programs().count(), 4);
        let out = cli.exec("revoke-many p0 p1 p2 p3 ghost");
        for i in 0..4 {
            assert!(out.contains(&format!("revoked `p{i}`")), "{out}");
        }
        assert!(out.contains("error revoking `ghost`"), "{out}");
        assert_eq!(cli.ctl.deployed_programs().count(), 0);
        assert_eq!(cli.exec("deploy-many"), "usage: deploy-many <file...>");
        assert_eq!(cli.exec("revoke-many"), "usage: revoke-many <name...>");
        assert!(cli.exec("deploy-many /no/such/file").starts_with("error reading"));
        std::fs::remove_dir_all(&dir).ok();
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
        assert!(cli.exec("serve 127.0.0.1:0 --max-clients x").starts_with("bad client limit `x`"));
        assert!(cli.exec("serve 127.0.0.1:0 --max-clients 0").starts_with("bad client limit `0`"));
        assert!(cli.exec("serve 127.0.0.1:0 --queue 8").contains("unknown flag `--queue`"));
        assert!(cli.exec("serve 127.0.0.1:0 --rate -1").starts_with("bad rate `-1`"));
        assert!(cli.exec("serve 127.0.0.1:0 --timeout-ns x").starts_with("bad timeout `x`"));
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
        let doc = serde::json::parse(&ping).expect("ping reply is JSON");
        assert_eq!(doc.get("ok"), Some(&serde::Value::Bool(true)), "{ping}");
        let out = driver.exec(&format!("client {addr} deploy {SRC}"));
        let doc = serde::json::parse(&out).unwrap();
        assert_eq!(doc.get("ok"), Some(&serde::Value::Bool(true)), "{out}");
        let out = driver.exec(&format!("client {addr} raw not json"));
        assert!(out.contains("\"error\""), "{out}");
        assert!(out.contains("line 1"), "{out}");
        let out = driver.exec(&format!("client {addr} revoke p"));
        assert!(out.contains("\"ok\""), "{out}");
        let out = driver.exec(&format!("client {addr} shutdown"));
        let doc = serde::json::parse(&out).unwrap();
        assert_eq!(doc.get("ok"), Some(&serde::Value::Bool(true)), "{out}");
        let (summary, srv) = handle.join().unwrap();
        assert!(summary.contains("drained"), "{summary}");
        assert!(srv.ctl.audit().unwrap().clean());
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
        assert!(cli.exec("chaos run --seed zebra").starts_with("bad seed"));
        assert!(cli.exec("chaos run --steps 0").starts_with("bad step count"));
        assert!(cli.exec("chaos run --programs x").starts_with("bad program count"));
        assert!(cli.exec("chaos run --faults sideways@3").starts_with("bad fault spec"));
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
        assert!(cli.exec("chaos run --slo-drop-ppm x").starts_with("bad threshold"));
    }

    #[test]
    fn replay_rejects_bad_flags() {
        let mut cli = cli();
        assert!(cli.exec("replay --packets").contains("missing value"));
        assert!(cli.exec("replay --packets 0").starts_with("bad value"));
        assert!(cli.exec("replay --workers zero").starts_with("bad value"));
        assert!(cli.exec("replay --seed x").starts_with("bad seed"));
        assert!(cli.exec("replay --sideways 1").contains("unknown flag"));
    }
}
