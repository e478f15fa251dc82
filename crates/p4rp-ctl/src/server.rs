//! The persistent runtime-control server: a multi-client, line-framed
//! JSON protocol over `std::net::TcpListener`, one thread per session.
//!
//! The paper's control plane is an always-on service taking runtime
//! program deployments from many operators at once. This module is that
//! entry point for the reproduction. Every accepted connection becomes a
//! *session*: one thread that reads a request line, takes the one lock
//! around the [`Controller`], executes the request through the command
//! model the CLI shares (`crate::command::execute`), unlocks, writes the
//! reply, and only then reads the next line. A session's requests
//! therefore run in the order it sent them — a session that pipelines
//! `revoke x` then `deploy x` gets them executed in that order — and
//! sessions interleave in the order they take the lock. A reply depends
//! on that commit order and the controller's channel mode, nothing else.
//! Per-entry atomicity and epoch-before-batch consistency are untouched:
//! the server sits wholly in front of the controller, it never reaches
//! around it.
//!
//! Every per-request decision lives in `Session::handle`, which never
//! touches a socket; the socket loop only reads, calls it and writes.
//! Nothing is queued in the server: a client that sends faster than it
//! reads fills the kernel's socket buffers and stalls only its own
//! session. Overload is explicit, never silent:
//!
//! * a connection past `max_clients` is answered `busy` and closed,
//! * an optional per-session token bucket on the **sim clock** answers
//!   `rate_limited`,
//! * an optional bound on the sim time a request waits for the lock
//!   answers `timeout`,
//! * `shutdown` drains: new connections are refused, open sessions see
//!   `draining`,
//! * a request line longer than [`MAX_LINE`] is answered with a `parse`
//!   error and the session is closed instead of buffering without bound.
//!
//! A connection that opens with an HTTP request line is served as a
//! one-shot Prometheus scrape through [`crate::metrics::http_response`]
//! (405 off GET, 404 off `/metrics`) and closed.
//!
//! Protocol grammar, knobs, and drain semantics: `docs/SERVER.md`.

use crate::command::{error_reply, execute, parse_request, Op, StatusView};
use crate::controller::Controller;
use crate::metrics::{http_response, render_prometheus};
use crate::telemetry::ServerStats;
use rmt_sim::trace::{RejectReason, RequestOp};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// The longest request line a session accepts, in bytes, newline
/// included. The largest program source in `p4rp-progs` is a few KiB.
pub const MAX_LINE: usize = 1 << 20;

/// How long the accept loop waits after a failed `accept` (say, out of
/// descriptors) before it tries again; a session ending or a drain
/// starting cuts the wait short.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Tuning knobs for [`serve`]. `Default` matches the CLI's defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent client sessions; further connections are refused with
    /// a one-line `busy` reply.
    pub max_clients: usize,
    /// Per-session token-bucket rate limit in requests per *simulated*
    /// second (burst = one second's worth, minimum 1). `None` disables.
    pub rate: Option<u64>,
    /// Maximum simulated time a request may wait for the controller lock
    /// before it is answered `timeout` instead of executing. `None`
    /// disables.
    pub request_timeout_ns: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { max_clients: 8, rate: None, request_timeout_ns: None }
    }
}

/// Per-session token bucket on the sim clock.
struct Bucket {
    tokens: f64,
    last_ns: u64,
}

/// How long one waiting session spins for the controller lock before it
/// sleeps. Handing the lock to a sleeping thread costs that thread's
/// wake-up with the controller idle meanwhile — a median 22 µs per
/// contended hand-off on a 2-vCPU VM, enough to make `p4rp_bench`'s
/// `server_churn` about 1.2× slower. One waiter spinning for about a
/// deploy's length keeps the controller busy back to back; the others
/// sleep.
const LOCK_SPIN: Duration = Duration::from_millis(1);

/// A request panicked mid-execution: the controller may be half-updated,
/// so no other request may run on it.
const POISONED: &str = "a request panicked while holding the controller lock";

/// The controller side every session shares: the one lock that orders
/// all requests, and the sim clock as of the last unlock, which a session
/// reads before it waits so it can tell how long the wait was.
struct Core<'c> {
    locked: Mutex<Locked<'c>>,
    sim_now: AtomicU64,
    /// Held by the one session spinning for the lock.
    spinner: AtomicBool,
    /// [`LOCK_SPIN`], or zero on one core, where a spinner would only
    /// keep the lock holder off the CPU.
    spin: Duration,
}

/// What the lock guards.
struct Locked<'c> {
    ctl: &'c mut Controller,
    /// Set by the `shutdown` request; every later request is refused.
    draining: bool,
}

impl<'c> Core<'c> {
    fn new(ctl: &'c mut Controller) -> Core<'c> {
        let sim_now = AtomicU64::new(ctl.channel().clock.now().0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin = if cores > 1 { LOCK_SPIN } else { Duration::ZERO };
        let locked = Mutex::new(Locked { ctl, draining: false });
        Core { locked, sim_now, spinner: AtomicBool::new(false), spin }
    }

    /// Run `f` under the lock, then publish the sim clock it left.
    fn with<R>(&self, f: impl FnOnce(&mut Locked<'c>) -> R) -> R {
        let mut locked = self.lock();
        let out = f(&mut locked);
        self.sim_now.store(locked.now_ns(), Ordering::SeqCst);
        out
    }

    /// Take the lock: spinning for up to `spin` if no other session is
    /// spinning, then sleeping. (`spinner` orders no data — the mutex
    /// does — so it is `Relaxed`.)
    fn lock(&self) -> MutexGuard<'_, Locked<'c>> {
        if !self.spinner.swap(true, Ordering::Relaxed) {
            let start = Instant::now();
            let taken = loop {
                match self.locked.try_lock() {
                    Ok(guard) => break Some(guard),
                    Err(TryLockError::WouldBlock) if start.elapsed() < self.spin => {
                        std::hint::spin_loop()
                    }
                    Err(TryLockError::WouldBlock) => break None,
                    Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
                }
            };
            self.spinner.store(false, Ordering::Relaxed);
            if let Some(guard) = taken {
                return guard;
            }
        }
        self.locked.lock().expect(POISONED)
    }
}

impl Locked<'_> {
    fn now_ns(&self) -> u64 {
        self.ctl.channel().clock.now().0
    }

    fn stats(&mut self) -> &mut ServerStats {
        self.ctl.server_stats_mut()
    }

    /// Count a refusal and leave it in the flight recorder.
    fn reject(&mut self, client: u32, request: u64, reason: RejectReason) {
        self.ctl.traced(|tr| tr.request_rejected(client, request, reason));
        let stats = self.stats();
        match reason {
            RejectReason::Busy => stats.rejected_busy += 1,
            RejectReason::RateLimited => stats.rejected_rate_limited += 1,
            RejectReason::Timeout => stats.rejected_timeout += 1,
            RejectReason::Draining => stats.rejected_draining += 1,
            RejectReason::Parse => stats.parse_errors += 1,
        }
    }
}

/// What the session does once a reply is written.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Then {
    /// Read the next line.
    Read,
    /// End the session (one-shot HTTP, over-long line).
    Close,
    /// Start the server's drain, then read the next line.
    Drain,
}

/// The bytes to write for one request line (empty for a blank line) and
/// what to do after writing them.
struct Reply {
    text: String,
    then: Then,
}

impl Reply {
    fn json(value: &Value, then: Then) -> Reply {
        let mut text = serde::json::to_string(value);
        text.push('\n');
        Reply { text, then }
    }
}

/// One session's own state.
struct Session<'a> {
    client: u32,
    cfg: &'a ServerConfig,
    /// Lines read so far; error details carry the 1-based line number.
    lines: u64,
    bucket: Option<Bucket>,
}

impl<'a> Session<'a> {
    fn new(client: u32, cfg: &'a ServerConfig) -> Session<'a> {
        Session { client, cfg, lines: 0, bucket: None }
    }

    /// Every decision about one request line, with no socket in sight:
    /// the line-length and UTF-8 checks, the first-line HTTP sniff, the
    /// parse, and — under the lock — draining, the timeout, the token
    /// bucket, the execution, its counters and its trace events.
    fn handle(&mut self, line: &[u8], core: &Core) -> Reply {
        self.lines += 1;
        let lineno = self.lines;
        if line.len() > MAX_LINE {
            let detail = format!("line {lineno}: request line exceeds {MAX_LINE} bytes");
            return Reply { then: Then::Close, ..self.parse_error(core, &detail) };
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return self.parse_error(core, &format!("line {lineno}: request is not valid UTF-8"));
        };
        let line = line.trim_end_matches(['\r', '\n']);
        // An HTTP scrape opens with `<METHOD> <path> HTTP/x.y`.
        if lineno == 1 && line.contains(" HTTP/") {
            return core.with(|l| {
                let body = render_prometheus(&l.ctl.telemetry_report());
                let (status, text) = http_response(line, &body);
                let stats = l.stats();
                if status == 200 {
                    stats.http_gets += 1;
                } else {
                    stats.http_rejected += 1;
                }
                Reply { text, then: Then::Close }
            });
        }
        if line.is_empty() {
            return Reply { text: String::new(), then: Then::Read };
        }
        let (request, op) = match parse_request(line, lineno) {
            Ok(parsed) => parsed,
            Err(detail) => return self.parse_error(core, &detail),
        };
        let since = core.sim_now.load(Ordering::SeqCst);
        core.with(|l| self.admit_and_execute(l, request, op, since))
    }

    /// A malformed line is answered and counted; the session stays open.
    fn parse_error(&self, core: &Core, detail: &str) -> Reply {
        core.with(|l| l.reject(self.client, 0, RejectReason::Parse));
        Reply::json(&error_reply(0, "parse", detail), Then::Read)
    }

    /// Admission (draining, timeout, rate limit), then execution. Runs
    /// under the lock; `since` is the sim clock before the wait for it.
    fn admit_and_execute(&mut self, l: &mut Locked, request: u64, op: Op, since: u64) -> Reply {
        let client = self.client;
        if l.draining {
            l.reject(client, request, RejectReason::Draining);
            let refused =
                error_reply(request, "draining", "server is shutting down; request refused");
            return Reply::json(&refused, Then::Read);
        }
        l.stats().requests += 1;
        let now = l.now_ns();
        let waited = now.saturating_sub(since);
        // `shutdown` is exempt from admission control: the sim clock only
        // advances on control-channel work, so a fully rate-limited
        // session must still be able to drain the server.
        let refusal = if matches!(op, Op::Shutdown) {
            None
        } else if self.cfg.request_timeout_ns.is_some_and(|limit| waited > limit) {
            Some(RejectReason::Timeout)
        } else if self.cfg.rate.is_some_and(|rate| !self.take_token(rate, now)) {
            Some(RejectReason::RateLimited)
        } else {
            None
        };
        if let Some(reason) = refusal {
            l.reject(client, request, reason);
            let detail = format!("request {request} rejected: {}", reason.name());
            return Reply::json(&error_reply(request, reason.name(), &detail), Then::Read);
        }
        let kind = op.kind();
        let stats = l.stats();
        stats.batches += 1;
        stats.batched_deploys += u64::from(kind == RequestOp::Deploy);
        stats.batched_revokes += u64::from(kind == RequestOp::Revoke);
        l.ctl.traced(|tr| tr.request_begin(client, request, kind));
        l.draining |= kind == RequestOp::Shutdown;
        let reply = execute(l.ctl, request, op);
        let ok = reply.get("ok") == Some(&Value::Bool(true));
        let dur_ns = l.now_ns().saturating_sub(since);
        let stats = l.stats();
        stats.responses_ok += u64::from(ok);
        stats.responses_err += u64::from(!ok);
        stats.request_latency.observe(dur_ns);
        l.ctl.traced(|tr| tr.request_end(client, request, kind, ok, dur_ns));
        Reply::json(&reply, if kind == RequestOp::Shutdown { Then::Drain } else { Then::Read })
    }

    /// Take one token from the bucket, refilled at `rate` per simulated
    /// second since the last take.
    fn take_token(&mut self, rate: u64, now: u64) -> bool {
        let burst = rate.max(1) as f64;
        let b = self.bucket.get_or_insert(Bucket { tokens: burst, last_ns: now });
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
}

/// Serve one session's lines until its input ends: read a line of at most
/// [`MAX_LINE`]` + 1` bytes, [`Session::handle`] it, write the reply, and
/// only then read the next line. Returns true when a reply asked to close
/// the session.
fn run_session(
    session: &mut Session,
    input: &mut impl BufRead,
    out: &mut impl Write,
    core: &Core,
    drain: impl Fn(),
) -> bool {
    let mut line = Vec::new();
    loop {
        line.clear();
        match input.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        let reply = session.handle(&line, core);
        let written = out.write_all(reply.text.as_bytes()).and_then(|()| out.flush());
        match reply.then {
            Then::Read => {}
            Then::Drain => drain(),
            Then::Close => return true,
        }
        if written.is_err() {
            return false;
        }
    }
}

/// The live sessions' sockets, so a drain can unblock readers parked in
/// `read`. A session leaves when it ends, which closes its descriptor.
struct Registry {
    sessions: Mutex<Sessions>,
    /// Signalled when a session leaves or a drain starts.
    changed: Condvar,
    /// The listener's address, which a drain connects to once to wake the
    /// blocking `accept`.
    wake: SocketAddr,
}

struct Sessions {
    open: HashMap<u32, Arc<TcpStream>>,
    draining: bool,
}

impl Registry {
    fn new(listener: &TcpListener) -> std::io::Result<Registry> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let sessions = Mutex::new(Sessions { open: HashMap::new(), draining: false });
        Ok(Registry { sessions, changed: Condvar::new(), wake })
    }

    /// Every update is one insert, remove or store, so the registry is
    /// whole even if a thread panicked holding it.
    fn lock(&self) -> MutexGuard<'_, Sessions> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn leave(&self, client: u32) {
        self.lock().open.remove(&client);
        self.changed.notify_all();
    }

    /// Stop accepting and unblock every parked reader. Only the read
    /// halves close: sessions still write their replies, the `shutdown`
    /// acknowledgement included, and answer what they had already
    /// received with `draining`.
    fn drain(&self) {
        let mut sessions = self.lock();
        sessions.draining = true;
        for conn in sessions.open.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        drop(sessions);
        self.changed.notify_all();
        let _ = TcpStream::connect(self.wake);
    }
}

/// Run the server until a client requests `shutdown` and every session
/// has ended. The accept loop runs on the calling thread and each session
/// on its own thread, all inside one `std::thread::scope`. Returns the
/// final counters, which are also left on the controller (the `server`
/// section of [`Controller::telemetry_report`]).
pub fn serve(
    ctl: &mut Controller,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> std::io::Result<ServerStats> {
    let registry = Registry::new(&listener)?;
    Ok(serve_with(ctl, &listener, cfg, &registry))
}

fn serve_with(
    ctl: &mut Controller,
    listener: &TcpListener,
    cfg: &ServerConfig,
    registry: &Registry,
) -> ServerStats {
    *ctl.server_stats_mut() = ServerStats::new();
    let core = Core::new(ctl);
    std::thread::scope(|s| accept_loop(s, listener, cfg, &core, registry));
    core.locked.into_inner().expect(POISONED).stats().clone()
}

fn accept_loop<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    listener: &TcpListener,
    cfg: &'scope ServerConfig,
    core: &'scope Core,
    registry: &'scope Registry,
) {
    let mut next_client: u32 = 1;
    loop {
        let accepted = listener.accept();
        let mut sessions = registry.lock();
        if sessions.draining {
            // The drain's wake-up, or a client too late to be served.
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Out of descriptors, say: a session ending frees one.
                let _ = registry.changed.wait_timeout(sessions, ACCEPT_BACKOFF);
                continue;
            }
        };
        if sessions.open.len() >= cfg.max_clients {
            drop(sessions);
            core.with(|l| l.stats().rejected_max_clients += 1);
            let busy = error_reply(0, "busy", "server full: max clients reached");
            let _ = (&stream).write_all(Reply::json(&busy, Then::Close).text.as_bytes());
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        // Request/reply lines are tiny; Nagle + delayed ACK would add
        // ~40 ms per round trip.
        let _ = stream.set_nodelay(true);
        let client = next_client;
        next_client += 1;
        let stream = Arc::new(stream);
        sessions.open.insert(client, Arc::clone(&stream));
        drop(sessions);
        core.with(|l| l.stats().accepted += 1);
        s.spawn(move || {
            let mut session = Session::new(client, cfg);
            let mut input = BufReader::new(&*stream);
            if run_session(&mut session, &mut input, &mut &*stream, core, || registry.drain()) {
                let _ = stream.shutdown(Shutdown::Write);
                // Discard whatever the client is still sending: leaving it
                // unread would turn the close into a reset that can
                // destroy the reply before the client reads it.
                let _ = std::io::copy(&mut input, &mut std::io::sink());
            }
            registry.leave(client);
        });
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
        self.writer.write_all(format!("{line}\n").as_bytes())?;
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

    /// Send one op and read its reply line.
    pub(crate) fn send(&mut self, op: Op) -> std::io::Result<String> {
        let id = self.next_id;
        self.next_id += 1;
        self.request_line(&serde::json::to_string(&op.into_request(id)))
    }

    /// `deploy` the given program source.
    pub fn deploy(&mut self, source: &str) -> std::io::Result<String> {
        self.send(Op::Deploy { source: source.to_string() })
    }

    /// `revoke` the named program.
    pub fn revoke(&mut self, name: &str) -> std::io::Result<String> {
        self.send(Op::Revoke { name: name.to_string() })
    }

    /// Compact `status`.
    pub fn status(&mut self) -> std::io::Result<String> {
        self.send(Op::Status(StatusView::Brief))
    }

    /// Prometheus exposition snapshot.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.send(Op::Metrics)
    }

    /// Flight-recorder statistics.
    pub fn trace(&mut self) -> std::io::Result<String> {
        self.send(Op::Trace)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<String> {
        self.send(Op::Ping)
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> std::io::Result<String> {
        self.send(Op::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{deploy_value, obj, revoke_value};
    use rmt_sim::trace::TraceConfig;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    fn source_for(i: usize) -> String {
        format!("program c{i}(<hdr.ipv4.dst, 10.1.{i}.1, 0xffffffff>) {{ FORWARD({}); }}", i + 1)
    }

    fn request(id: u64, op: &str, arg: Option<(&str, String)>) -> String {
        let mut fields = vec![("id", Value::U64(id)), ("op", Value::Str(op.to_string()))];
        fields.extend(arg.map(|(k, v)| (k, Value::Str(v))));
        serde::json::to_string(&obj(fields)) + "\n"
    }

    fn id_of(line: &str) -> u64 {
        match serde::json::parse(line.trim_end()).unwrap().get("id") {
            Some(Value::U64(id)) => *id,
            other => panic!("no id: {other:?}"),
        }
    }

    fn reply_ok(text: &str) -> bool {
        serde::json::parse(text.trim_end()).unwrap().get("ok") == Some(&Value::Bool(true))
    }

    /// A session's socket leaves the drain registry when the session ends,
    /// which closes its descriptor: after 200 connect / ping / close cycles
    /// only the live session is registered, and a fresh session is served.
    #[test]
    fn ended_sessions_leave_the_registry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let registry = Registry::new(&listener).unwrap();
        let mut ctl = Controller::with_defaults().unwrap();
        let cfg = ServerConfig::default();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_with(&mut ctl, &listener, &cfg, &registry));
            let cycles = s.spawn(|| {
                for _ in 0..200 {
                    let mut c = Client::connect(&addr).unwrap();
                    assert!(reply_ok(&c.ping().unwrap()));
                    // Half-close and wait for end-of-stream: the server
                    // closes the socket only once the session has left the
                    // registry.
                    c.writer.shutdown(Shutdown::Write).unwrap();
                    c.writer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let mut rest = String::new();
                    c.reader.read_to_string(&mut rest).expect("end-of-stream from the server");
                    assert_eq!(rest, "");
                }
            })
            .join();
            // Stop the server before asserting, so a failure reports
            // instead of leaving the scope waiting on it.
            let mut c = Client::connect(&addr).unwrap();
            let ping = c.ping().unwrap();
            let open: Vec<u32> = registry.lock().open.keys().copied().collect();
            let bye = c.shutdown().unwrap();
            let stats = server.join().unwrap();
            if let Err(panic) = cycles {
                std::panic::resume_unwind(panic);
            }
            assert_eq!(open, vec![201], "only the live session is registered");
            assert!(reply_ok(&ping) && reply_ok(&bye));
            assert_eq!((stats.accepted, stats.responses_ok), (201, 202), "{stats:?}");
        });
        assert!(registry.lock().open.is_empty());
    }

    /// Input that hands out one scripted line per `read` call and logs it.
    struct Script {
        lines: VecDeque<String>,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(line) = self.lines.pop_front() else { return Ok(0) };
            self.log.borrow_mut().push(format!("read {}", id_of(&line)));
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    /// Output that logs each reply it is handed.
    struct Recorder(Rc<RefCell<Vec<String>>>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().push(format!("reply {}", id_of(std::str::from_utf8(buf).unwrap())));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A client that pipelines its requests is read from only as fast as
    /// its replies are written: request k+1 is read after reply k, and
    /// replies come out in request order. A client that never reads
    /// therefore stalls its own session on the socket's buffers instead of
    /// growing a queue in the server.
    #[test]
    fn reads_follow_writes_and_replies_keep_request_order() {
        let mut ctl = Controller::with_defaults().unwrap();
        let core = Core::new(&mut ctl);
        let cfg = ServerConfig::default();
        let log = Rc::new(RefCell::new(Vec::new()));
        let lines = VecDeque::from(vec![
            request(1, "deploy", Some(("source", source_for(0)))),
            request(2, "status", None),
            request(3, "revoke", Some(("name", "c0".to_string()))),
            request(4, "metrics", None),
            request(5, "trace", None),
            request(6, "ping", None),
        ]);
        let mut input = BufReader::new(Script { lines, log: Rc::clone(&log) });
        let mut out = Recorder(Rc::clone(&log));
        let closed =
            run_session(&mut Session::new(1, &cfg), &mut input, &mut out, &core, || panic!());
        assert!(!closed);
        let want: Vec<String> =
            (1..=6).flat_map(|id| [format!("read {id}"), format!("reply {id}")]).collect();
        assert_eq!(*log.borrow(), want);
        let stats = core.with(|l| l.stats().clone());
        assert_eq!((stats.responses_ok, stats.batches), (6, 6), "{stats:?}");
    }

    /// Every interleaving of scripts whose lengths are `left`.
    fn interleavings(left: &mut [usize]) -> Vec<Vec<usize>> {
        if left.iter().all(|&n| n == 0) {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for s in 0..left.len() {
            if left[s] > 0 {
                left[s] -= 1;
                for mut tail in interleavings(left) {
                    tail.insert(0, s);
                    out.push(tail);
                }
                left[s] += 1;
            }
        }
        out
    }

    /// Schedules × channel modes that
    /// `every_schedule_of_three_sessions_matches_a_direct_controller` runs:
    /// 6! / (2! 2! 2!) = 90 interleavings, in both channel modes.
    const SCHEDULE_RUNS: usize = 180;

    /// Three scripted sessions, each `deploy c_i` then `revoke c_i`, run
    /// through the socket-free request path in every order the lock can
    /// give them. Each session gets its replies in request order, every
    /// deterministic deploy and revoke field equals a direct `Controller`
    /// running the same op sequence, and the controller ends audit-clean
    /// with no invariant violation — for every schedule, not a sample.
    #[test]
    fn every_schedule_of_three_sessions_matches_a_direct_controller() {
        let schedules = &interleavings(&mut [2, 2, 2]);
        // One thread per channel mode: each run builds two controllers.
        let runs: usize = std::thread::scope(|s| {
            let modes = [false, true].map(|fast_path| {
                s.spawn(move || schedules.iter().map(|sch| run_schedule(sch, fast_path)).count())
            });
            modes.into_iter().map(|mode| mode.join().unwrap()).sum()
        });
        assert_eq!(runs, SCHEDULE_RUNS);
    }

    fn run_schedule(schedule: &[usize], fast_path: bool) {
        let ctx = format!("schedule {schedule:?}, fast_path {fast_path}");
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.set_fast_path(fast_path);
        ctl.enable_trace(TraceConfig::default());
        let cfg = ServerConfig::default();
        let core = Core::new(&mut ctl);
        let mut sessions: Vec<Session> = (1..=3).map(|c| Session::new(c, &cfg)).collect();
        let mut replies: Vec<Vec<Value>> = vec![Vec::new(); 3];
        for &s in schedule {
            let line = match replies[s].len() {
                0 => request(1, "deploy", Some(("source", source_for(s)))),
                _ => request(2, "revoke", Some(("name", format!("c{s}")))),
            };
            let reply = sessions[s].handle(line.as_bytes(), &core);
            assert_eq!(reply.then, Then::Read, "{ctx}");
            replies[s].push(serde::json::parse(reply.text.trim_end()).unwrap());
        }

        let mut direct = Controller::with_defaults().unwrap();
        direct.set_fast_path(fast_path);
        let mut next = [0usize; 3];
        for &s in schedule {
            let reply = &replies[s][next[s]];
            next[s] += 1;
            assert_eq!(reply.get("id"), Some(&Value::U64(next[s] as u64)), "{ctx}");
            assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{ctx}: {reply:?}");
            let (field, want) = if next[s] == 1 {
                let reports = direct.deploy(&source_for(s)).unwrap();
                ("reports", Value::Array(reports.iter().map(deploy_value).collect()))
            } else {
                ("report", revoke_value(&direct.revoke(&format!("c{s}")).unwrap()))
            };
            assert_eq!(reply.get(field), Some(&want), "{ctx}");
        }
        assert!(ctl.audit().unwrap().clean(), "{ctx}");
        assert_eq!(ctl.trace_stats().violations, 0, "{ctx}");
    }

    /// Two sibling cases that reach `ma` and `mc` in opposite orders once
    /// made lowering run forever under the controller lock, so one such
    /// `deploy` blocked every session. It is refused with a positioned
    /// check error, and the next session is served.
    #[test]
    fn a_deploy_refused_by_the_case_order_check_blocks_no_other_session() {
        let source = "@ ma 256\n@ mc 256\nprogram p(<hdr.udp.dst_port, 7, 0xffff>) {\n    \
                      BRANCH:\n    case(<sar, 0, 0xffffffff>) { MEMREAD(ma); MEMREAD(mc); };\n    \
                      case(<sar, 1, 0xffffffff>) { MEMREAD(mc); MEMREAD(ma); };\n}\n";
        let mut ctl = Controller::with_defaults().unwrap();
        let cfg = ServerConfig::default();
        let core = Core::new(&mut ctl);
        let deploy = request(1, "deploy", Some(("source", source.to_string())));
        let reply = Session::new(1, &cfg).handle(deploy.as_bytes(), &core);
        let doc = serde::json::parse(reply.text.trim_end()).unwrap();
        assert_eq!(doc.get("error"), Some(&Value::Str("failed".into())), "{doc:?}");
        let Some(Value::Str(detail)) = doc.get("detail") else { panic!("{doc:?}") };
        // The controller's error text, as every failed reply carries it.
        let check = "compile error: language errors:\n  check error at 5:1: sibling cases order";
        assert!(detail.starts_with(check), "{detail}");
        let ping = Session::new(2, &cfg).handle(request(1, "ping", None).as_bytes(), &core);
        assert!(reply_ok(&ping.text), "{}", ping.text);
        assert!(ctl.audit().unwrap().clean());
    }
}
