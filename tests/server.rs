//! The runtime-control server end to end (docs/SERVER.md).
//!
//! The acceptance bar from the issue:
//!
//! 1. **Fidelity** — a loopback session of several concurrent clients
//!    interleaving deploy/revoke/status/metrics completes with responses
//!    that match what a direct `Controller` produces **bit-for-bit** on
//!    every deterministic field (names, prog ids, entry counts, depths,
//!    passes, simulated update delays — never wall-clock durations, which
//!    do not replay).
//! 2. **Consistency** — after a drain shutdown the controller audits
//!    clean and the flight recorder holds zero invariant violations.
//! 3. **Backpressure** — over-limit clients receive an explicit `busy` /
//!    `rate_limited` reply, never a hang.
//! 4. **HTTP fold-in** — the same port answers one-shot Prometheus
//!    scrapes, refusing non-GET methods (405) and non-`/metrics` paths
//!    (404) instead of shrugging 200 at everything.

use p4runpro::p4rp_ctl::server::{serve, Client, ServerConfig};
use p4runpro::p4rp_ctl::telemetry::ServerStats;
use p4runpro::rmt_sim::trace::TraceConfig;
use p4runpro::Controller;
use serde::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Bind on an ephemeral port and return (listener, addr-string).
fn bind() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

/// Start a server over a fresh traced controller on its own thread.
/// Returns the address and a handle yielding (final stats, controller).
fn start_server(
    cfg: ServerConfig,
) -> (String, std::thread::JoinHandle<(ServerStats, Controller)>) {
    start_server_in_mode(cfg, false)
}

/// [`start_server`] with the controller's channel mode chosen.
#[allow(clippy::type_complexity)]
fn start_server_in_mode(
    cfg: ServerConfig,
    fast_path: bool,
) -> (String, std::thread::JoinHandle<(ServerStats, Controller)>) {
    let (listener, addr) = bind();
    let handle = std::thread::spawn(move || {
        let mut ctl = Controller::with_defaults().unwrap();
        ctl.set_fast_path(fast_path);
        ctl.enable_trace(TraceConfig::default());
        let stats = serve(&mut ctl, listener, &cfg).unwrap();
        (stats, ctl)
    });
    (addr, handle)
}

fn get_u64(doc: &Value, key: &str) -> u64 {
    match doc.get(key) {
        Some(Value::U64(n)) => *n,
        other => panic!("field `{key}` not a u64: {other:?}"),
    }
}

fn get_str<'a>(doc: &'a Value, key: &str) -> &'a str {
    match doc.get(key) {
        Some(Value::Str(s)) => s.as_str(),
        other => panic!("field `{key}` not a string: {other:?}"),
    }
}

fn assert_ok(doc: &Value, context: &str) {
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{context}: {doc:?}");
}

/// The deterministic slice of one deploy report, as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeployFacts {
    name: String,
    prog_id: u64,
    entries_installed: u64,
    depth: u64,
    passes: u64,
    update_delay_ns: u64,
}

fn deploy_facts(report: &Value) -> DeployFacts {
    DeployFacts {
        name: get_str(report, "name").to_string(),
        prog_id: get_u64(report, "prog_id"),
        entries_installed: get_u64(report, "entries_installed"),
        depth: get_u64(report, "depth"),
        passes: get_u64(report, "passes"),
        update_delay_ns: get_u64(report, "update_delay_ns"),
    }
}

fn source_for(i: usize) -> String {
    format!("program c{i}(<hdr.ipv4.dst, 10.1.{i}.1, 0xffffffff>) {{ FORWARD({}); }}", i + 1)
}

/// Concurrent clients interleave the whole request surface; the
/// responses must reproduce a direct controller bit-for-bit, and the
/// drained server must audit clean with a silent invariant checker.
///
/// Tick composition is varied on purpose — four clients released together
/// (ticks of up to four) and the same four strictly one after another
/// (ticks of one) — in both channel modes: a reply depends on the commit
/// order and the controller's channel mode, never on what shared its tick.
#[test]
fn concurrent_sessions_match_direct_controller_bit_for_bit() {
    for fast_path in [false, true] {
        for together in [true, false] {
            fidelity_scenario(together, fast_path);
        }
    }
}

/// Phase A of one fidelity client: deploy a distinct program, with
/// status/metrics interleaved on the same session.
fn fidelity_deploy(c: &mut Client, i: usize) -> (String, String, String, String) {
    let source = source_for(i);
    let deploy = c.deploy(&source).unwrap();
    (source, deploy, c.status().unwrap(), c.metrics().unwrap())
}

fn fidelity_scenario(together: bool, fast_path: bool) {
    const CLIENTS: usize = 4;
    let (addr, server) = start_server_in_mode(ServerConfig::default(), fast_path);

    let mut sessions: Vec<(String, String, String, String, String)> = if together {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    // Phase A: everyone deploys concurrently.
                    barrier.wait();
                    let (source, deploy, status, metrics) = fidelity_deploy(&mut c, i);
                    // Phase B: everyone revokes their own program concurrently.
                    barrier.wait();
                    let revoke = c.revoke(&format!("c{i}")).unwrap();
                    (source, deploy, status, metrics, revoke)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    } else {
        // Closed loop on one thread: every tick holds exactly one request.
        let mut clients: Vec<Client> =
            (0..CLIENTS).map(|_| Client::connect(&addr).unwrap()).collect();
        let deployed: Vec<_> =
            clients.iter_mut().enumerate().map(|(i, c)| fidelity_deploy(c, i)).collect();
        deployed
            .into_iter()
            .zip(&mut clients)
            .enumerate()
            .map(|(i, ((source, deploy, status, metrics), c))| {
                (source, deploy, status, metrics, c.revoke(&format!("c{i}")).unwrap())
            })
            .collect()
    };

    // One last session checks post-drain audit and stops the server.
    let mut closer = Client::connect(&addr).unwrap();
    let final_status = closer.status().unwrap();
    assert_ok(&serde::json::parse(&closer.shutdown().unwrap()).unwrap(), "shutdown");
    let (stats, ctl) = server.join().unwrap();

    // -- Consistency ---------------------------------------------------
    assert!(ctl.audit().unwrap().clean(), "audit dirty after drain");
    assert_eq!(ctl.trace_stats().violations, 0, "invariant violations recorded");
    let doc = serde::json::parse(&final_status).unwrap();
    assert_eq!(get_u64(&doc, "programs_deployed"), 0, "{final_status}");
    assert_eq!(stats.responses_err, 0, "unexpected errors: {stats:?}");
    assert_eq!(stats.requests, (CLIENTS * 4 + 2) as u64, "{stats:?}");
    assert_eq!(stats.batched_deploys, CLIENTS as u64, "{stats:?}");
    assert_eq!(stats.batched_revokes, CLIENTS as u64, "{stats:?}");
    assert_eq!(stats.accepted, (CLIENTS + 1) as u64, "{stats:?}");

    // Every status/metrics response parsed and reported ok.
    for (_, _, status, metrics, _) in &sessions {
        let s = serde::json::parse(status).unwrap();
        assert_ok(&s, "status");
        let m = serde::json::parse(metrics).unwrap();
        assert_ok(&m, "metrics");
        // The exposition inside the reply is well-formed.
        p4runpro::p4rp_ctl::parse_prometheus(get_str(&m, "exposition")).unwrap();
    }

    // -- Fidelity ------------------------------------------------------
    // The response prog_id reveals the global commit order the ticks
    // chose. Replaying the sources in that order on a fresh controller in
    // the same channel mode must reproduce every deterministic field
    // exactly: commit applies a program's own entries only, so per-program
    // results depend on the commit sequence, not on what shared a tick.
    let mut committed: Vec<(DeployFacts, String, String)> = sessions
        .drain(..)
        .map(|(source, deploy, _, _, revoke)| {
            let doc = serde::json::parse(&deploy).unwrap();
            assert_ok(&doc, "deploy");
            let reports = doc.get("reports").and_then(|v| v.as_array()).unwrap();
            assert_eq!(reports.len(), 1, "{deploy}");
            (deploy_facts(&reports[0]), source, revoke)
        })
        .collect();
    committed.sort_by_key(|(facts, _, _)| facts.prog_id);

    let mut direct = Controller::with_defaults().unwrap();
    direct.set_fast_path(fast_path);
    for (facts, source, _) in &committed {
        let reports = direct
            .deploy(source)
            .unwrap_or_else(|e| panic!("direct deploy of `{}`: {e}", facts.name));
        assert_eq!(reports.len(), 1);
        let want = DeployFacts {
            name: reports[0].name.clone(),
            prog_id: u64::from(reports[0].prog_id),
            entries_installed: reports[0].entries_installed as u64,
            depth: reports[0].depth as u64,
            passes: u64::from(reports[0].passes),
            update_delay_ns: reports[0].update_delay.0,
        };
        assert_eq!(facts, &want, "server/direct deploy reports diverged");
        // One body entry plus one filter entry: two 930 µs RPCs per entry,
        // or one 600 µs RPC carrying two 30 µs inserts.
        let model_ns = if fast_path { 660_000 } else { 1_860_000 };
        assert_eq!(facts.update_delay_ns, model_ns, "together={together}");
    }
    for (facts, _, revoke) in &committed {
        let direct_report = direct
            .revoke(&facts.name)
            .unwrap_or_else(|e| panic!("direct revoke of `{}`: {e}", facts.name));
        let doc = serde::json::parse(revoke).unwrap();
        assert_ok(&doc, "revoke");
        let report = doc.get("report").unwrap();
        assert_eq!(get_str(report, "name"), direct_report.name, "{revoke}");
        assert_eq!(
            get_u64(report, "update_delay_ns"),
            direct_report.update_delay.0,
            "server/direct revoke delay diverged for `{}`",
            facts.name
        );
    }
    assert!(direct.audit().unwrap().clean());
}

/// Over-limit clients are told so explicitly — a session past its rate
/// gets `rate_limited`, a connection past `max_clients` gets `busy` at
/// accept — and a flood never hangs: every request draws exactly one
/// reply line.
#[test]
fn over_limit_clients_get_explicit_rejections_not_hangs() {
    let cfg = ServerConfig { max_clients: 2, rate: Some(1), ..Default::default() };
    let (addr, server) = start_server(cfg);

    // Session 1: the token bucket holds one token (burst = rate = 1) and
    // the sim clock only advances on control-channel work, so the second
    // ping is deterministically over the rate.
    let mut a = Client::connect(&addr).unwrap();
    assert_ok(&serde::json::parse(&a.ping().unwrap()).unwrap(), "first ping");
    let doc = serde::json::parse(&a.ping().unwrap()).unwrap();
    assert_eq!(doc.get("ok"), Some(&Value::Bool(false)), "{doc:?}");
    assert_eq!(get_str(&doc, "error"), "rate_limited");

    // A second session fills `max_clients`; the third connection is
    // refused with a one-line `busy` reply instead of dangling.
    let _b = Client::connect(&addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut refused = TcpStream::connect(&addr).unwrap();
    let mut line = String::new();
    refused.read_to_string(&mut line).unwrap();
    let doc = serde::json::parse(line.trim()).unwrap_or_else(|e| panic!("{e}: {line:?}"));
    assert_eq!(get_str(&doc, "error"), "busy", "{line:?}");

    // Flood: many requests on one socket; exactly one reply line each
    // (ok or explicit rejection), no hang, no dropped request.
    drop(_b);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut flood = Client::connect(&addr).unwrap();
    let mut outcomes = std::collections::BTreeMap::new();
    for _ in 0..40 {
        let doc = serde::json::parse(&flood.status().unwrap()).unwrap();
        let outcome = match doc.get("ok") {
            Some(Value::Bool(true)) => "ok".to_string(),
            _ => get_str(&doc, "error").to_string(),
        };
        *outcomes.entry(outcome).or_insert(0u32) += 1;
    }
    assert_eq!(outcomes.values().sum::<u32>(), 40);
    assert!(outcomes.contains_key("rate_limited"), "{outcomes:?}");

    // `shutdown` is exempt from admission control — even a fully
    // rate-limited session can always drain the server.
    assert_ok(&serde::json::parse(&flood.shutdown().unwrap()).unwrap(), "shutdown");
    let (stats, _ctl) = server.join().unwrap();
    assert!(stats.rejected_rate_limited > 0, "{stats:?}");
    assert_eq!(stats.rejected_max_clients, 1, "{stats:?}");
}

/// One-shot HTTP over the same port: non-GET methods are 405, paths
/// other than `/metrics` are 404, and a real scrape returns a parseable
/// exposition that includes the server's own counters.
#[test]
fn http_scrapes_route_by_method_and_path() {
    let (addr, server) = start_server(ServerConfig::default());

    let http = |request: &str| -> String {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };

    // Seed some state first so the scrape carries real rows.
    let mut c = Client::connect(&addr).unwrap();
    assert_ok(&serde::json::parse(&c.deploy(&source_for(0)).unwrap()).unwrap(), "deploy");

    let resp = http("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");
    assert!(resp.contains("Allow: GET"), "{resp}");
    let resp = http("GET /other HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
    let resp = http("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    let body = resp.split("\r\n\r\n").nth(1).unwrap();
    let samples = p4runpro::p4rp_ctl::parse_prometheus(body).unwrap();
    assert!(samples.iter().any(|s| s.name == "p4rp_server_requests_total"), "{body}");
    let deployed = samples.iter().find(|s| s.name == "p4rp_programs_deployed").unwrap();
    assert_eq!(deployed.value, 1.0, "{body}");

    assert_ok(&serde::json::parse(&c.shutdown().unwrap()).unwrap(), "shutdown");
    let (stats, _ctl) = server.join().unwrap();
    assert_eq!(stats.http_gets, 1, "{stats:?}");
    assert_eq!(stats.http_rejected, 2, "{stats:?}");
}

/// The CI `server-smoke` path: start, deploy over the line protocol,
/// scrape over HTTP, drain, and come back with coherent counters in
/// both the final stats and the controller's own telemetry.
#[test]
fn server_smoke_deploy_scrape_drain() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    assert_ok(&serde::json::parse(&c.deploy(&source_for(3)).unwrap()).unwrap(), "deploy");
    let m = serde::json::parse(&c.metrics().unwrap()).unwrap();
    assert_ok(&m, "metrics");
    let samples = p4runpro::p4rp_ctl::parse_prometheus(get_str(&m, "exposition")).unwrap();
    assert!(samples.iter().any(|s| s.name == "p4rp_programs_deployed"), "scrape lacks gauges");
    let t = serde::json::parse(&c.trace().unwrap()).unwrap();
    assert_ok(&t, "trace");
    assert!(get_u64(&t, "recorded") > 0, "{t:?}");
    assert_eq!(get_u64(&t, "capacity"), TraceConfig::default().capacity as u64, "{t:?}");
    assert_ok(&serde::json::parse(&c.shutdown().unwrap()).unwrap(), "shutdown");

    let (stats, ctl) = server.join().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.responses_ok, 4);
    assert_eq!(stats.responses_err + stats.rejected() + stats.parse_errors, 0, "{stats:?}");
    assert!(stats.request_latency.count() >= 4, "{stats:?}");
    // The drained controller still carries the final server section, so
    // `status --json` consumers see how the session ended.
    let report = ctl.telemetry_report();
    let sv = report.server.expect("server section in telemetry");
    assert_eq!(sv.requests, 4);
    // Request lifecycle events reached the flight recorder.
    let trace = ctl.trace().expect("trace enabled");
    let kinds: Vec<&str> = trace.events().map(|e| e.kind.name()).collect();
    assert!(kinds.contains(&"request_begin"), "no request_begin in trace");
    assert!(kinds.contains(&"request_end"), "no request_end in trace");
}

/// Requests one session pipelines are executed in the order it sent them,
/// whatever tick they land in: `revoke x` then `deploy x` ends with `x`
/// resident. (Ticks used to run their deploys before their revokes: the
/// second deploy failed as a duplicate and the revoke then removed `x`.)
#[test]
fn pipelined_revoke_then_deploy_keeps_session_order() {
    use std::io::{BufRead, BufReader};

    let (addr, server) = start_server(ServerConfig::default());
    let mut raw = TcpStream::connect(&addr).unwrap();
    let deploy = |id: u64, source: &str| {
        let source = serde::json::to_string(&Value::Str(source.to_string()));
        format!("{{\"id\": {id}, \"op\": \"deploy\", \"source\": {source}}}\n")
    };
    // The larger program keeps the service busy while the two requests
    // behind it queue up for one tick.
    let larger = "@ big 1024\nprogram larger(<hdr.ipv4.dst, 10.7.7.7, 0xffffffff>) \
                  { LOADI(mar, 3); MEMREAD(big); MEMADD(big); FORWARD(2); }";
    let mut pipelined = deploy(1, &source_for(0));
    pipelined += &deploy(2, larger);
    pipelined += "{\"id\": 3, \"op\": \"revoke\", \"name\": \"c0\"}\n";
    pipelined += &deploy(4, &source_for(0));
    raw.write_all(pipelined.as_bytes()).unwrap();

    let mut replies = BufReader::new(raw.try_clone().unwrap());
    for id in 1..=4 {
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        let doc = serde::json::parse(reply.trim()).unwrap_or_else(|e| panic!("{e}: {reply:?}"));
        assert_eq!(get_u64(&doc, "id"), id, "replies follow request order: {reply}");
        assert_ok(&doc, "pipelined request");
    }
    raw.write_all(b"{\"id\": 5, \"op\": \"shutdown\"}\n").unwrap();
    let (stats, ctl) = server.join().unwrap();
    assert!(ctl.program("c0").is_some(), "`c0` must end up resident");
    assert!(ctl.program("larger").is_some());
    assert_eq!((stats.batched_deploys, stats.batched_revokes), (3, 1), "{stats:?}");
    assert_eq!(stats.responses_err, 0, "{stats:?}");
    assert!(ctl.audit().unwrap().clean(), "audit dirty after drain");
}

/// Malformed requests draw line-numbered parse errors and never wedge
/// the session; well-formed requests after them still work.
#[test]
fn malformed_requests_get_line_numbered_errors() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut c = Client::connect(&addr).unwrap();

    let reply = c.request_line("this is not json").unwrap();
    let doc = serde::json::parse(&reply).unwrap();
    assert_eq!(get_str(&doc, "error"), "parse", "{reply}");
    assert!(get_str(&doc, "detail").starts_with("line 1:"), "{reply}");

    let reply = c.request_line(r#"{"op": "ping"}"#).unwrap();
    let doc = serde::json::parse(&reply).unwrap();
    assert!(get_str(&doc, "detail").contains("line 2") , "{reply}");
    assert!(get_str(&doc, "detail").contains("missing `id`"), "{reply}");

    let reply = c.request_line(r#"{"id": 1, "op": "deploy", "source": 5}"#).unwrap();
    let doc = serde::json::parse(&reply).unwrap();
    assert!(get_str(&doc, "detail").contains("`source` must be a string"), "{reply}");

    let reply = c.request_line(r#"{"id": 1, "op": "frobnicate"}"#).unwrap();
    let doc = serde::json::parse(&reply).unwrap();
    assert!(get_str(&doc, "detail").contains("unknown op `frobnicate`"), "{reply}");

    // The session survives all of that.
    assert_ok(&serde::json::parse(&c.ping().unwrap()).unwrap(), "ping after garbage");
    assert_ok(&serde::json::parse(&c.shutdown().unwrap()).unwrap(), "shutdown");
    let (stats, _ctl) = server.join().unwrap();
    assert_eq!(stats.parse_errors, 4, "{stats:?}");
    assert_eq!(stats.responses_ok, 2, "{stats:?}");
}

/// A request line that is not valid UTF-8 is a parse error like any
/// other malformed line — answered with its line number, counted, and
/// the session stays open — not a silently dropped connection.
#[test]
fn invalid_utf8_request_is_answered_and_the_session_survives() {
    use std::io::{BufRead, BufReader};

    let (addr, server) = start_server(ServerConfig::default());
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut replies = BufReader::new(raw.try_clone().unwrap());
    let mut exchange = |request: &[u8]| {
        raw.write_all(request).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        serde::json::parse(reply.trim()).unwrap_or_else(|e| panic!("{e}: {reply:?}"))
    };

    let doc = exchange(b"{\"id\": 1, \"op\": \"ping\", \"x\": \"\xff\xfe\"}\n");
    assert_eq!(get_str(&doc, "error"), "parse", "{doc:?}");
    assert_eq!(get_str(&doc, "detail"), "line 1: request is not valid UTF-8", "{doc:?}");
    assert_eq!(get_u64(&doc, "id"), 0, "{doc:?}");

    assert_ok(&exchange(b"{\"id\": 2, \"op\": \"ping\"}\n"), "ping after invalid bytes");
    assert_ok(&exchange(b"{\"id\": 3, \"op\": \"shutdown\"}\n"), "shutdown");
    let (stats, ctl) = server.join().unwrap();
    assert_eq!(stats.parse_errors, 1, "{stats:?}");
    assert_eq!(stats.responses_ok, 2, "{stats:?}");
    assert!(ctl.audit().unwrap().clean(), "audit dirty after drain");
}

/// A client that streams bytes without ever sending a newline gets a
/// `parse` error naming the limit and an end-of-stream, not an
/// ever-growing server buffer; the server keeps serving other sessions.
#[test]
fn over_long_request_line_is_refused_and_the_session_closed() {
    use p4runpro::p4rp_ctl::server::MAX_LINE;

    let (addr, server) = start_server(ServerConfig::default());
    let mut hog = TcpStream::connect(&addr).unwrap();
    hog.write_all(&vec![b'x'; 2 * MAX_LINE]).unwrap();
    // The reply is followed by end-of-stream, so this returns.
    let mut reply = String::new();
    hog.read_to_string(&mut reply).unwrap();
    let doc = serde::json::parse(reply.trim()).unwrap_or_else(|e| panic!("{e}: {reply:?}"));
    assert_eq!(get_str(&doc, "error"), "parse", "{reply}");
    assert!(get_str(&doc, "detail").contains(&format!("exceeds {MAX_LINE} bytes")), "{reply}");
    drop(hog);

    // A fresh session is unaffected.
    let mut c = Client::connect(&addr).unwrap();
    assert_ok(&serde::json::parse(&c.deploy(&source_for(0)).unwrap()).unwrap(), "deploy");
    assert_ok(&serde::json::parse(&c.revoke("c0").unwrap()).unwrap(), "revoke");
    assert_ok(&serde::json::parse(&c.shutdown().unwrap()).unwrap(), "shutdown");
    let (stats, ctl) = server.join().unwrap();
    assert_eq!(stats.parse_errors, 1, "{stats:?}");
    assert_eq!(stats.responses_err, 0, "{stats:?}");
    assert!(ctl.audit().unwrap().clean(), "audit dirty after drain");
}

/// A program source nested 20 000 `case` blocks deep (800 KB, under
/// `MAX_LINE`) used to overflow the parser's stack and abort the process,
/// taking every session with it. It is an ordinary positioned error now —
/// through `Controller::deploy` and over the wire — and the session that
/// sent it keeps working.
#[test]
fn deeply_nested_source_is_refused_and_the_session_survives() {
    use p4runpro::p4rp_ctl::server::MAX_LINE;

    let nested = |depth: usize| {
        format!(
            "program deep(<hdr.ipv4.dst, 10.9.9.1, 0xffffffff>) {{ {}DROP; {}}}",
            "BRANCH: case(<sar, 0, 0xffffffff>) { ".repeat(depth),
            "}; ".repeat(depth)
        )
    };
    let source = nested(20_000);
    assert!(source.len() > 800_000 && source.len() < MAX_LINE);

    let mut direct = Controller::with_defaults().unwrap();
    let err = direct.deploy(&source).unwrap_err().to_string();
    assert!(err.contains("parse error at 1:") && err.contains("nested deeper than"), "{err}");
    // The deepest source the parser lets through survives the later walks
    // (check, lower) and is turned down by the compiler instead.
    let err = direct.deploy(&nested(64)).unwrap_err().to_string();
    assert!(err.starts_with("compile error:"), "{err}");

    let (addr, server) = start_server(ServerConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let reply = c.deploy(&source).unwrap();
    let doc = serde::json::parse(&reply).unwrap();
    assert_eq!(get_str(&doc, "error"), "failed", "{reply}");
    assert!(get_str(&doc, "detail").contains("nested deeper than"), "{reply}");
    assert_ok(&serde::json::parse(&c.ping().unwrap()).unwrap(), "ping after the refused deploy");
    assert_ok(&serde::json::parse(&c.deploy(&source_for(1)).unwrap()).unwrap(), "deploy");
    assert_ok(&serde::json::parse(&c.shutdown().unwrap()).unwrap(), "shutdown");
    let (stats, ctl) = server.join().unwrap();
    assert_eq!((stats.responses_err, stats.parse_errors), (1, 0), "{stats:?}");
    assert!(ctl.audit().unwrap().clean(), "audit dirty after drain");
}
