//! The persistent runtime-control server: a multi-client, line-framed
//! JSON protocol over `std::net::TcpListener`, serving concurrent
//! sessions from one queue, a tick at a time.
//!
//! The paper's control plane is an always-on service taking runtime
//! program deployments from many operators at once. This module is that
//! entry point for the reproduction: every accepted connection becomes a
//! *session* (reader + writer thread pair), every request line becomes a
//! command on a single service queue, and the service loop — the only
//! code that touches the [`Controller`] — drains the queue one *tick* at
//! a time, executing every request in arrival order through
//! [`Controller::deploy`] / [`Controller::revoke`]. A reply therefore
//! depends on the commit order and the controller's channel mode, never
//! on what shared its tick, and a session that pipelines `revoke x` then
//! `deploy x` gets them executed in that order. Per-entry atomicity and
//! epoch-before-batch consistency are untouched: the server sits wholly
//! in front of the controller, it never reaches around it.
//!
//! Overload is explicit, never silent:
//!
//! * each session has a bounded in-flight window; a request past it is
//!   answered `busy` immediately (429-style) instead of buffering,
//! * an optional per-session token bucket on the **sim clock** answers
//!   `rate_limited`,
//! * an optional queue-age bound answers `timeout` at dispatch,
//! * `shutdown` drains: queued work completes, new connections are
//!   refused, open sessions see `draining`,
//! * a request line longer than [`MAX_LINE`] is answered with a `parse`
//!   error and the session is closed instead of buffering without bound.
//!
//! A connection that opens with an HTTP request line is served as a
//! one-shot Prometheus scrape through [`crate::metrics::http_response`]
//! (405 off GET, 404 off `/metrics`) and closed.
//!
//! Protocol grammar, knobs, and drain semantics: `docs/SERVER.md`.

use crate::controller::{Controller, DeployReport, RevokeReport};
use crate::metrics::{http_response, render_prometheus};
use crate::telemetry::ServerStats;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rmt_sim::trace::{RejectReason, RequestOp};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The longest request line a session accepts, in bytes, newline
/// included. The largest program source in `p4rp-progs` is a few KiB.
pub const MAX_LINE: usize = 1 << 20;

/// Tuning knobs for [`serve`]. `Default` matches the CLI's defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent client sessions; further connections are refused with
    /// a one-line `busy` reply.
    pub max_clients: usize,
    /// Per-session in-flight request bound; a request submitted past it
    /// is answered `busy` without queueing.
    pub queue_depth: usize,
    /// Per-session token-bucket rate limit in requests per *simulated*
    /// second (burst = one second's worth, minimum 1). `None` disables.
    pub rate: Option<u64>,
    /// Maximum simulated queue age before a request is answered
    /// `timeout` at dispatch instead of executing. `None` disables.
    pub request_timeout_ns: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { max_clients: 8, queue_depth: 8, rate: None, request_timeout_ns: None }
    }
}

/// One parsed request operation.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Deploy { source: String },
    Revoke { name: String },
    Status { full: bool },
    Metrics,
    Trace,
    Ping,
    Shutdown,
}

impl Op {
    fn kind(&self) -> RequestOp {
        match self {
            Op::Deploy { .. } => RequestOp::Deploy,
            Op::Revoke { .. } => RequestOp::Revoke,
            Op::Status { .. } => RequestOp::Status,
            Op::Metrics => RequestOp::Metrics,
            Op::Trace => RequestOp::Trace,
            Op::Ping => RequestOp::Ping,
            Op::Shutdown => RequestOp::Shutdown,
        }
    }
}

/// One framed reply travelling from the service (or the session's own
/// reader) to the session's writer thread.
struct Reply {
    text: String,
    /// Write the bytes verbatim (HTTP documents carry their own `\r\n`
    /// framing); line replies get a trailing `\n` appended.
    raw: bool,
    /// Send end-of-stream after writing (one-shot HTTP, over-long line).
    close: bool,
}

impl Reply {
    fn line(text: String) -> Reply {
        Reply { text, raw: false, close: false }
    }
}

/// One command on the service queue.
enum Command {
    /// An admitted request to execute.
    Request {
        client: u32,
        request: u64,
        /// Sim clock at submission, read from the service's published
        /// stamp — the latency figure and the timeout check both measure
        /// simulated queue time, not wall time.
        submit_ns: u64,
        op: Op,
        reply: Sender<Reply>,
        /// The session's in-flight window; decremented when the reply is
        /// queued.
        inflight: Arc<AtomicUsize>,
    },
    /// A session-side refusal (busy / draining / parse) already answered
    /// by the reader — forwarded so it lands in stats and the flight
    /// recorder.
    Rejected { client: u32, request: u64, reason: RejectReason },
    /// An accepted connection that opened with an HTTP request head.
    Http { head: String, reply: Sender<Reply> },
    /// A connection refused at accept because `max_clients` sessions
    /// were live.
    ConnRefused,
}

/// Everything the accept/reader/writer threads share with the service.
struct Shared {
    shutdown: AtomicBool,
    live_clients: AtomicUsize,
    /// Total sessions ever accepted, stamped by the accept thread and
    /// folded into [`ServerStats::accepted`] each tick.
    accepted: AtomicU64,
    /// Sim clock published by the service after every tick; sessions
    /// stamp submissions with it.
    sim_now: AtomicU64,
    /// One half-open clone per live connection, so drain can unblock
    /// readers parked in `read_line`.
    conns: Mutex<Vec<TcpStream>>,
}

/// Parse one request line. `lineno` is 1-based within the connection;
/// errors carry it the way `parse_prometheus` errors do.
fn parse_request(line: &str, lineno: u64) -> Result<(u64, Op), String> {
    let doc = serde::json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
    if doc.as_object().is_none() {
        return Err(format!("line {lineno}: request must be a JSON object"));
    }
    let id = match doc.get("id") {
        Some(Value::U64(n)) => *n,
        Some(_) => return Err(format!("line {lineno}: `id` must be an unsigned integer")),
        None => return Err(format!("line {lineno}: missing `id`")),
    };
    let op_name = match doc.get("op") {
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err(format!("line {lineno}: `op` must be a string")),
        None => return Err(format!("line {lineno}: missing `op`")),
    };
    let need_str = |field: &str| match doc.get(field) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("line {lineno}: `{field}` must be a string")),
        None => Err(format!("line {lineno}: `{op_name}` requires a string `{field}`")),
    };
    let op = match op_name {
        "deploy" => Op::Deploy { source: need_str("source")? },
        "revoke" => Op::Revoke { name: need_str("name")? },
        "status" => Op::Status { full: matches!(doc.get("full"), Some(Value::Bool(true))) },
        "metrics" => Op::Metrics,
        "trace" => Op::Trace,
        "ping" => Op::Ping,
        "shutdown" => Op::Shutdown,
        other => {
            return Err(format!(
                "line {lineno}: unknown op `{other}` (expected deploy, revoke, status, \
                 metrics, trace, ping, or shutdown)"
            ))
        }
    };
    Ok((id, op))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn error_reply(id: u64, error: &str, detail: &str) -> String {
    serde::json::to_string(&obj(vec![
        ("id", Value::U64(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::Str(error.to_string())),
        ("detail", Value::Str(detail.to_string())),
    ]))
}

/// Only deterministic (simulated / structural) fields go on the wire:
/// responses from equivalent runs must compare bit-for-bit, and wall
/// times never replay.
fn deploy_value(r: &DeployReport) -> Value {
    obj(vec![
        ("name", Value::Str(r.name.clone())),
        ("prog_id", Value::U64(u64::from(r.prog_id))),
        ("entries_installed", Value::U64(r.entries_installed as u64)),
        ("depth", Value::U64(r.depth as u64)),
        ("passes", Value::U64(u64::from(r.passes))),
        ("update_delay_ns", Value::U64(r.update_delay.0)),
    ])
}

fn revoke_value(r: &RevokeReport) -> Value {
    obj(vec![
        ("name", Value::Str(r.name.clone())),
        ("update_delay_ns", Value::U64(r.update_delay.0)),
    ])
}

/// Per-session token bucket on the sim clock.
struct Bucket {
    tokens: f64,
    last_ns: u64,
}

struct Service<'a> {
    ctl: &'a mut Controller,
    cfg: &'a ServerConfig,
    stats: ServerStats,
    buckets: HashMap<u32, Bucket>,
    draining: bool,
}

impl Service<'_> {
    fn now_ns(&self) -> u64 {
        self.ctl.channel().clock.now().0
    }

    /// Count a refusal and leave it in the flight recorder.
    fn reject(&mut self, client: u32, request: u64, reason: RejectReason) {
        self.ctl.traced(|tr| tr.request_rejected(client, request, reason));
        match reason {
            RejectReason::Busy => self.stats.rejected_busy += 1,
            RejectReason::RateLimited => self.stats.rejected_rate_limited += 1,
            RejectReason::Timeout => self.stats.rejected_timeout += 1,
            RejectReason::Draining => self.stats.rejected_draining += 1,
            RejectReason::Parse => self.stats.parse_errors += 1,
        }
    }

    /// Take one token from `client`'s bucket, refilled at `rate` per
    /// simulated second since the last take.
    fn take_token(&mut self, client: u32, rate: u64) -> bool {
        let now = self.now_ns();
        let burst = rate.max(1) as f64;
        let b = self
            .buckets
            .entry(client)
            .or_insert(Bucket { tokens: burst, last_ns: now });
        let dt = now.saturating_sub(b.last_ns) as f64 / 1e9;
        b.tokens = (b.tokens + dt * rate as f64).min(burst);
        b.last_ns = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Execute one service tick over everything that was queued, in
    /// arrival order: each request passes admission (timeout, rate
    /// limit) at its dispatch and, once admitted, executes before the
    /// next one is looked at.
    fn tick(&mut self, batch: Vec<Command>) {
        let mut executed = false;
        for cmd in batch {
            match cmd {
                Command::Rejected { client, request, reason } => {
                    self.reject(client, request, reason);
                }
                Command::ConnRefused => self.stats.rejected_max_clients += 1,
                Command::Http { head, reply } => {
                    let body = render_prometheus(&self.ctl.telemetry_report());
                    let (status, text) = http_response(&head, &body);
                    if status == 200 {
                        self.stats.http_gets += 1;
                    } else {
                        self.stats.http_rejected += 1;
                    }
                    let _ = reply.send(Reply { text, raw: true, close: true });
                }
                Command::Request { client, request, submit_ns, op, reply, inflight } => {
                    self.stats.requests += 1;
                    let now = self.now_ns();
                    // `shutdown` is exempt from admission control: the
                    // sim clock only advances on control-channel work,
                    // so a fully rate-limited session must still be able
                    // to drain the server.
                    let exempt = matches!(op, Op::Shutdown);
                    let mut reject = None;
                    if !exempt {
                        if let Some(limit) = self.cfg.request_timeout_ns {
                            if now.saturating_sub(submit_ns) > limit {
                                reject = Some(RejectReason::Timeout);
                            }
                        }
                        if reject.is_none() {
                            if let Some(rate) = self.cfg.rate {
                                if !self.take_token(client, rate) {
                                    reject = Some(RejectReason::RateLimited);
                                }
                            }
                        }
                    }
                    let text = if let Some(reason) = reject {
                        self.reject(client, request, reason);
                        let detail = format!("request {request} rejected: {}", reason.name());
                        error_reply(request, reason.name(), &detail)
                    } else {
                        executed = true;
                        let kind = op.kind();
                        self.stats.batched_deploys += u64::from(kind == RequestOp::Deploy);
                        self.stats.batched_revokes += u64::from(kind == RequestOp::Revoke);
                        self.ctl.traced(|tr| tr.request_begin(client, request, kind));
                        let (text, ok) = self.execute(request, op);
                        self.finish(client, request, kind, ok, submit_ns);
                        text
                    };
                    let _ = reply.send(Reply::line(text));
                    inflight.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        self.stats.batches += u64::from(executed);

        // Publish fresh counters so `status --json` / scrapes read the
        // live server even mid-session.
        self.ctl.set_server_stats(self.stats.clone());
    }

    fn finish(&mut self, client: u32, request: u64, op: RequestOp, ok: bool, submit_ns: u64) {
        let dur_ns = self.now_ns().saturating_sub(submit_ns);
        if ok {
            self.stats.responses_ok += 1;
        } else {
            self.stats.responses_err += 1;
        }
        self.stats.request_latency.observe(dur_ns);
        self.ctl.traced(|tr| tr.request_end(client, request, op, ok, dur_ns));
    }

    /// Execute one admitted request, returning its reply line and
    /// whether it succeeded.
    fn execute(&mut self, request: u64, op: Op) -> (String, bool) {
        let text = match op {
            Op::Deploy { source } => match self.ctl.deploy(&source) {
                Ok(reports) => serde::json::to_string(&obj(vec![
                    ("id", Value::U64(request)),
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("deploy".into())),
                    ("reports", Value::Array(reports.iter().map(deploy_value).collect())),
                ])),
                Err(e) => return (error_reply(request, "failed", &e.to_string()), false),
            },
            Op::Revoke { name } => match self.ctl.revoke(&name) {
                Ok(report) => serde::json::to_string(&obj(vec![
                    ("id", Value::U64(request)),
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("revoke".into())),
                    ("report", revoke_value(&report)),
                ])),
                Err(e) => return (error_reply(request, "failed", &e.to_string()), false),
            },
            Op::Status { full } => {
                let report = self.ctl.telemetry_report();
                let mut fields = vec![
                    ("id", Value::U64(request)),
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("status".into())),
                    ("schema_version", Value::U64(report.schema_version)),
                    ("epoch", Value::U64(report.epoch)),
                    ("programs_deployed", Value::U64(report.programs_deployed)),
                ];
                if full {
                    fields.push(("report", serde::json::parse(&report.to_json()).expect(
                        "a rendered telemetry report always re-parses",
                    )));
                }
                serde::json::to_string(&obj(fields))
            }
            Op::Metrics => {
                let body = render_prometheus(&self.ctl.telemetry_report());
                serde::json::to_string(&obj(vec![
                    ("id", Value::U64(request)),
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("metrics".into())),
                    ("exposition", Value::Str(body)),
                ]))
            }
            Op::Trace => {
                let t = self.ctl.trace_stats();
                serde::json::to_string(&obj(vec![
                    ("id", Value::U64(request)),
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("trace".into())),
                    ("enabled", Value::Bool(t.enabled)),
                    ("recorded", Value::U64(t.recorded)),
                    ("dropped", Value::U64(t.dropped)),
                    ("retained", Value::U64(t.retained)),
                    ("capacity", Value::U64(t.capacity)),
                    ("violations", Value::U64(t.violations)),
                ]))
            }
            Op::Ping => serde::json::to_string(&obj(vec![
                ("id", Value::U64(request)),
                ("ok", Value::Bool(true)),
                ("op", Value::Str("ping".into())),
                ("epoch", Value::U64(self.ctl.epoch())),
                ("now_ns", Value::U64(self.now_ns())),
            ])),
            Op::Shutdown => {
                self.draining = true;
                serde::json::to_string(&obj(vec![
                    ("id", Value::U64(request)),
                    ("ok", Value::Bool(true)),
                    ("op", Value::Str("shutdown".into())),
                    ("draining", Value::Bool(true)),
                ]))
            }
        };
        (text, true)
    }
}

/// Run the server until a client requests `shutdown`. The service loop
/// owns the calling thread (and the exclusive [`Controller`] borrow);
/// accept and per-session threads live inside one `std::thread::scope`.
/// Returns the final counters, which are also left on the controller
/// (the `server` section of [`Controller::telemetry_report`]).
pub fn serve(
    ctl: &mut Controller,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> std::io::Result<ServerStats> {
    listener.set_nonblocking(true)?;
    let shared = Shared {
        shutdown: AtomicBool::new(false),
        live_clients: AtomicUsize::new(0),
        accepted: AtomicU64::new(0),
        sim_now: AtomicU64::new(ctl.channel().clock.now().0),
        conns: Mutex::new(Vec::new()),
    };
    let shared = &shared;
    let mut service =
        Service { ctl, cfg, stats: ServerStats::new(), buckets: HashMap::new(), draining: false };

    let listener_ref = &listener;
    std::thread::scope(|s| {
        let (tx, rx): (Sender<Command>, Receiver<Command>) = unbounded();
        {
            let tx = tx.clone();
            s.spawn(move || accept_loop(s, listener_ref, tx, shared, cfg));
        }
        drop(tx);

        // The service loop: block for the first command, drain the rest
        // of the queue into the same tick.
        while let Ok(first) = rx.recv() {
            let mut batch = vec![first];
            while let Ok(more) = rx.try_recv() {
                batch.push(more);
            }
            service.stats.accepted = shared.accepted.load(Ordering::SeqCst);
            service.tick(batch);
            shared.sim_now.store(service.now_ns(), Ordering::SeqCst);
            if service.draining && !shared.shutdown.swap(true, Ordering::SeqCst) {
                // First tick after the shutdown request: stop accepting,
                // then unblock every parked reader so sessions wind down.
                // Close only the read half — writers still hold queued
                // replies (including the shutdown acknowledgement) that
                // must flush before the stream drops. Queued commands
                // keep draining through the loop above until every
                // sender is gone.
                for conn in shared.conns.lock().unwrap().drain(..) {
                    let _ = conn.shutdown(Shutdown::Read);
                }
            }
        }
        service.ctl.set_server_stats(service.stats.clone());
    });
    Ok(service.stats)
}

fn accept_loop<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    listener: &'scope TcpListener,
    tx: Sender<Command>,
    shared: &'scope Shared,
    cfg: &'scope ServerConfig,
) {
    let mut next_client: u32 = 1;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Request/reply lines are tiny; Nagle + delayed ACK
                // would add ~40 ms per round trip.
                let _ = stream.set_nodelay(true);
                // A session needs a second handle for its writer thread.
                // A failed `dup` (descriptor exhaustion under a
                // connect/close storm) is refused like a full server:
                // nothing reachable from a socket may panic this scope.
                let writer_stream = match stream.try_clone() {
                    Ok(w) if shared.live_clients.load(Ordering::SeqCst) < cfg.max_clients => w,
                    _ => {
                        let _ = tx.send(Command::ConnRefused);
                        let mut stream = stream;
                        let _ = stream.write_all(
                            format!(
                                "{}\n",
                                error_reply(0, "busy", "server full: max clients reached")
                            )
                            .as_bytes(),
                        );
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let client = next_client;
                next_client += 1;
                shared.live_clients.fetch_add(1, Ordering::SeqCst);
                shared.accepted.fetch_add(1, Ordering::SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().push(clone);
                }
                let (reply_tx, reply_rx) = unbounded::<Reply>();
                s.spawn(move || writer_loop(writer_stream, reply_rx));
                let tx = tx.clone();
                s.spawn(move || {
                    session_loop(client, stream, tx, reply_tx, shared, cfg);
                    shared.live_clients.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<Reply>) {
    let mut out = BufWriter::new(stream);
    while let Ok(reply) = rx.recv() {
        let _ = out.write_all(reply.text.as_bytes());
        if !reply.raw {
            let _ = out.write_all(b"\n");
        }
        let _ = out.flush();
        if reply.close {
            // Write half only: the reader may still be discarding input.
            let _ = out.get_ref().shutdown(Shutdown::Write);
            return;
        }
    }
}

/// Read one line into `buf` (cleared first), stopping after
/// [`MAX_LINE`]` + 1` bytes so a peer that never sends a newline cannot
/// grow the buffer without bound. A result longer than `MAX_LINE` is an
/// over-long line cut short.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
) -> std::io::Result<usize> {
    buf.clear();
    reader.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', buf)
}

/// One session's reader: sniffs HTTP, then parses request lines, applies
/// backpressure, and feeds the service queue. Replies it produces itself
/// (busy / draining / parse errors) still flow through the writer thread
/// so output stays serialized.
fn session_loop(
    client: u32,
    stream: TcpStream,
    tx: Sender<Command>,
    reply_tx: Sender<Reply>,
    shared: &Shared,
    cfg: &ServerConfig,
) {
    let mut reader = BufReader::new(stream);
    let inflight = Arc::new(AtomicUsize::new(0));
    let mut lineno: u64 = 0;
    let mut first = true;
    let mut line = Vec::new();
    // A malformed line is answered and counted; the session stays open.
    let parse_error = |detail: String| {
        let _ = reply_tx.send(Reply::line(error_reply(0, "parse", &detail)));
        let _ = tx.send(Command::Rejected { client, request: 0, reason: RejectReason::Parse });
    };
    loop {
        match read_bounded_line(&mut reader, &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        lineno += 1;
        if line.len() > MAX_LINE {
            let detail = format!("line {lineno}: request line exceeds {MAX_LINE} bytes");
            let text = error_reply(0, "parse", &detail);
            let _ = reply_tx.send(Reply { text, raw: false, close: true });
            let _ = tx.send(Command::Rejected { client, request: 0, reason: RejectReason::Parse });
            // Discard whatever the client is still sending: leaving it
            // unread would turn the close into a reset that can destroy
            // the reply before the client reads it.
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
            return;
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            first = false;
            parse_error(format!("line {lineno}: request is not valid UTF-8"));
            continue;
        };
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if first {
            first = false;
            // An HTTP scrape opens with `<METHOD> <path> HTTP/x.y`.
            if trimmed.contains(" HTTP/") {
                // Drain the header block, then hand the head to the
                // service for a one-shot routed response.
                let head = trimmed.to_string();
                let mut hdr = Vec::new();
                while read_bounded_line(&mut reader, &mut hdr).is_ok_and(|n| n > 0) {
                    if hdr == b"\n" || hdr == b"\r\n" {
                        break;
                    }
                }
                let _ = tx.send(Command::Http { head, reply: reply_tx });
                return;
            }
        }
        if trimmed.is_empty() {
            continue;
        }
        let (request, op) = match parse_request(trimmed, lineno) {
            Ok(parsed) => parsed,
            Err(detail) => {
                parse_error(detail);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = reply_tx.send(Reply::line(error_reply(
                request,
                "draining",
                "server is shutting down; request refused",
            )));
            let _ = tx.send(Command::Rejected { client, request, reason: RejectReason::Draining });
            continue;
        }
        // Backpressure: refuse past the in-flight window instead of
        // buffering without bound.
        if inflight.load(Ordering::SeqCst) >= cfg.queue_depth {
            let _ = reply_tx.send(Reply::line(error_reply(
                request,
                "busy",
                &format!("in-flight window full ({} requests)", cfg.queue_depth),
            )));
            let _ = tx.send(Command::Rejected { client, request, reason: RejectReason::Busy });
            continue;
        }
        inflight.fetch_add(1, Ordering::SeqCst);
        let cmd = Command::Request {
            client,
            request,
            submit_ns: shared.sim_now.load(Ordering::SeqCst),
            op,
            reply: reply_tx.clone(),
            inflight: Arc::clone(&inflight),
        };
        if tx.send(cmd).is_err() {
            return;
        }
    }
}

/// A minimal loopback client for the line protocol — what the `p4rp
/// client` subcommand and the end-to-end tests drive the server with.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, next_id: 1 })
    }

    /// Send one raw request line and read one reply line.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    fn request(&mut self, mut fields: Vec<(&str, Value)>) -> std::io::Result<String> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(0, ("id", Value::U64(id)));
        let line = serde::json::to_string(&obj(fields));
        self.request_line(&line)
    }

    /// `deploy` the given program source.
    pub fn deploy(&mut self, source: &str) -> std::io::Result<String> {
        self.request(vec![
            ("op", Value::Str("deploy".into())),
            ("source", Value::Str(source.to_string())),
        ])
    }

    /// `revoke` the named program.
    pub fn revoke(&mut self, name: &str) -> std::io::Result<String> {
        self.request(vec![
            ("op", Value::Str("revoke".into())),
            ("name", Value::Str(name.to_string())),
        ])
    }

    /// Compact `status`.
    pub fn status(&mut self) -> std::io::Result<String> {
        self.request(vec![("op", Value::Str("status".into()))])
    }

    /// Prometheus exposition snapshot.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.request(vec![("op", Value::Str("metrics".into()))])
    }

    /// Flight-recorder statistics.
    pub fn trace(&mut self) -> std::io::Result<String> {
        self.request(vec![("op", Value::Str("trace".into()))])
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<String> {
        self.request(vec![("op", Value::Str("ping".into()))])
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> std::io::Result<String> {
        self.request(vec![("op", Value::Str("shutdown".into()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parser_is_strict_and_line_numbered() {
        let (id, op) = parse_request(r#"{"id": 7, "op": "ping"}"#, 3).unwrap();
        assert_eq!(id, 7);
        assert_eq!(op, Op::Ping);
        let (_, op) =
            parse_request(r#"{"id": 1, "op": "deploy", "source": "program x() {}"}"#, 1).unwrap();
        assert_eq!(op, Op::Deploy { source: "program x() {}".into() });
        let (_, op) = parse_request(r#"{"id": 1, "op": "status", "full": true}"#, 1).unwrap();
        assert_eq!(op, Op::Status { full: true });

        let err = parse_request("not json", 4).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        let err = parse_request(r#"{"op": "ping"}"#, 9).unwrap_err();
        assert!(err.contains("line 9") && err.contains("missing `id`"), "{err}");
        let err = parse_request(r#"{"id": -3, "op": "ping"}"#, 2).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
        let err = parse_request(r#"{"id": 1, "op": "warp"}"#, 5).unwrap_err();
        assert!(err.contains("unknown op `warp`"), "{err}");
        let err = parse_request(r#"{"id": 1, "op": "deploy"}"#, 6).unwrap_err();
        assert!(err.contains("requires a string `source`"), "{err}");
        let err = parse_request(r#"{"id": 1, "op": "revoke", "name": 4}"#, 7).unwrap_err();
        assert!(err.contains("`name` must be a string"), "{err}");
        let err = parse_request("[1, 2]", 8).unwrap_err();
        assert!(err.contains("JSON object"), "{err}");
    }

    #[test]
    fn error_replies_are_single_line_json() {
        let text = error_reply(3, "busy", "line 1: too much");
        assert!(!text.contains('\n'), "{text}");
        let doc = serde::json::parse(&text).unwrap();
        assert_eq!(doc.get("id"), Some(&Value::U64(3)));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("error"), Some(&Value::Str("busy".into())));
    }
}
