//! The one command model both control front ends share.
//!
//! A command the CLI and the server both take is an [`Op`]. It is built in
//! two places only: [`parse_request`] reads a server request line (JSON)
//! and [`parse_line`] reads a CLI line. [`execute`] runs an op on the
//! controller and returns the reply as a JSON [`Value`]; the server writes
//! that value on the wire, and [`render`] — the only code that turns a
//! reply into CLI text — prints it, whether the CLI ran the op in-process
//! or got the reply back from a served controller. The same line therefore
//! prints the same text either way, errors included.

use crate::controller::{Controller, DeployReport, RevokeReport};
use crate::metrics::render_prometheus;
use rmt_sim::trace::RequestOp;
use serde::{Deserialize, Serialize, Value};

/// One command the CLI and the server share.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    Deploy { source: String },
    Revoke { name: String },
    Status(StatusView),
    Metrics,
    Trace,
    Ping,
    Shutdown,
}

/// How much a `status` reply carries beyond its summary figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StatusView {
    /// The figures only (`status`).
    Brief,
    /// The whole telemetry report (`status --json`, `"full": true`).
    Report,
    /// The report's text summary (`status --metrics`, `"summary": true`).
    Summary,
}

impl Op {
    pub(crate) fn kind(&self) -> RequestOp {
        match self {
            Op::Deploy { .. } => RequestOp::Deploy,
            Op::Revoke { .. } => RequestOp::Revoke,
            Op::Status(_) => RequestOp::Status,
            Op::Metrics => RequestOp::Metrics,
            Op::Trace => RequestOp::Trace,
            Op::Ping => RequestOp::Ping,
            Op::Shutdown => RequestOp::Shutdown,
        }
    }

    /// The protocol verb.
    fn name(&self) -> &'static str {
        match self {
            Op::Deploy { .. } => "deploy",
            Op::Revoke { .. } => "revoke",
            Op::Status(_) => "status",
            Op::Metrics => "metrics",
            Op::Trace => "trace",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        }
    }

    /// The request that [`parse_request`] reads back as this op.
    pub(crate) fn into_request(self, id: u64) -> Value {
        let verb = self.name();
        let mut fields = vec![("id", Value::U64(id)), ("op", Value::Str(verb.into()))];
        match self {
            Op::Deploy { source } => fields.push(("source", Value::Str(source))),
            Op::Revoke { name } => fields.push(("name", Value::Str(name))),
            Op::Status(StatusView::Report) => fields.push(("full", Value::Bool(true))),
            Op::Status(StatusView::Summary) => fields.push(("summary", Value::Bool(true))),
            _ => {}
        }
        obj(fields)
    }
}

/// Parse one request line. `lineno` is 1-based within the connection;
/// errors carry it the way `parse_prometheus` errors do.
pub(crate) fn parse_request(line: &str, lineno: u64) -> Result<(u64, Op), String> {
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
    let flag = |field: &str| matches!(doc.get(field), Some(Value::Bool(true)));
    let op = match op_name {
        "deploy" => Op::Deploy { source: need_str("source")? },
        "revoke" => Op::Revoke { name: need_str("name")? },
        "status" if flag("full") => Op::Status(StatusView::Report),
        "status" if flag("summary") => Op::Status(StatusView::Summary),
        "status" => Op::Status(StatusView::Brief),
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

/// What the CLI grammar makes of a command line.
pub(crate) enum Parsed<'a> {
    /// A shared command, and the file its text goes to instead of the
    /// screen (`metrics export <path>`).
    Shared(Op, Option<&'a str>),
    /// A shared command with arguments it does not take.
    Malformed,
    /// Not a shared command.
    Local,
}

/// Parse a CLI line, split into its command word and the rest, as far as
/// the shared commands go. A `deploy` source runs to the end of the line,
/// with `\n` escapes for newlines.
pub(crate) fn parse_line<'a>(cmd: &str, rest: &'a str) -> Parsed<'a> {
    let args: Vec<&'a str> = rest.split_whitespace().collect();
    let op = match (cmd, args.as_slice()) {
        ("deploy", [_, ..]) => Op::Deploy { source: rest.replace("\\n", "\n") },
        ("revoke", [name]) => Op::Revoke { name: name.to_string() },
        ("status", []) => Op::Status(StatusView::Brief),
        ("status", ["--json"]) => Op::Status(StatusView::Report),
        ("status", ["--metrics"]) => Op::Status(StatusView::Summary),
        ("trace", [] | ["status"]) => Op::Trace,
        ("metrics", ["export"] | ["export", "-"]) => Op::Metrics,
        ("metrics", ["export", path]) => return Parsed::Shared(Op::Metrics, Some(*path)),
        ("ping", []) => Op::Ping,
        ("shutdown", []) => Op::Shutdown,
        ("deploy" | "revoke" | "status" | "metrics" | "ping" | "shutdown", _) => {
            return Parsed::Malformed
        }
        _ => return Parsed::Local,
    };
    Parsed::Shared(op, None)
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A success reply: `id`, `ok`, `op`, then `fields`.
fn reply(id: u64, op: &Op, fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let head =
        [("id", Value::U64(id)), ("ok", Value::Bool(true)), ("op", Value::Str(op.name().into()))];
    Value::Object(head.into_iter().chain(fields).map(|(k, v)| (k.to_string(), v)).collect())
}

pub(crate) fn error_reply(id: u64, error: &str, detail: &str) -> Value {
    obj(vec![
        ("id", Value::U64(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::Str(error.to_string())),
        ("detail", Value::Str(detail.to_string())),
    ])
}

/// Only deterministic (simulated / structural) fields go on the wire:
/// responses from equivalent runs must compare bit-for-bit, and wall
/// times never replay.
pub(crate) fn deploy_value(r: &DeployReport) -> Value {
    obj(vec![
        ("name", Value::Str(r.name.clone())),
        ("prog_id", Value::U64(u64::from(r.prog_id))),
        ("entries_installed", Value::U64(r.entries_installed as u64)),
        ("depth", Value::U64(r.depth as u64)),
        ("passes", Value::U64(u64::from(r.passes))),
        ("update_delay_ns", Value::U64(r.update_delay.0)),
    ])
}

pub(crate) fn revoke_value(r: &RevokeReport) -> Value {
    obj(vec![
        ("name", Value::Str(r.name.clone())),
        ("update_delay_ns", Value::U64(r.update_delay.0)),
    ])
}

/// Run one op on the controller and return its reply. `shutdown` only
/// acknowledges: draining is the server's business.
pub(crate) fn execute(ctl: &mut Controller, id: u64, op: Op) -> Value {
    let failed = |e: crate::controller::CtlError| error_reply(id, "failed", &e.to_string());
    match &op {
        Op::Deploy { source } => match ctl.deploy(source) {
            Ok(reports) => {
                let reports = reports.iter().map(deploy_value).collect();
                reply(id, &op, [("reports", Value::Array(reports))])
            }
            Err(e) => failed(e),
        },
        Op::Revoke { name } => match ctl.revoke(name) {
            Ok(report) => reply(id, &op, [("report", revoke_value(&report))]),
            Err(e) => failed(e),
        },
        Op::Status(view) => {
            let report = ctl.telemetry_report();
            let r = &report.resources;
            let mut fields = vec![
                ("schema_version", Value::U64(report.schema_version)),
                ("epoch", Value::U64(report.epoch)),
                ("programs_deployed", Value::U64(report.programs_deployed)),
                ("memory_utilization", Value::F64(r.memory_utilization)),
                ("entry_utilization", Value::F64(r.entry_utilization)),
                ("init_filters", Value::U64(r.init_used)),
            ];
            match view {
                StatusView::Brief => {}
                StatusView::Report => fields.push(("report", report.to_value())),
                StatusView::Summary => fields.push(("summary", Value::Str(report.summary()))),
            }
            reply(id, &op, fields)
        }
        Op::Metrics => {
            let body = render_prometheus(&ctl.telemetry_report());
            reply(id, &op, [("exposition", Value::Str(body))])
        }
        Op::Trace => {
            let t = ctl.trace_stats();
            let fields = [
                ("enabled", Value::Bool(t.enabled)),
                ("recorded", Value::U64(t.recorded)),
                ("dropped", Value::U64(t.dropped)),
                ("retained", Value::U64(t.retained)),
                ("capacity", Value::U64(t.capacity)),
                ("violations", Value::U64(t.violations)),
            ];
            reply(id, &op, fields)
        }
        Op::Ping => {
            let now = ctl.channel().clock.now().0;
            reply(id, &op, [("epoch", Value::U64(ctl.epoch())), ("now_ns", Value::U64(now))])
        }
        Op::Shutdown => reply(id, &op, [("draining", Value::Bool(true))]),
    }
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(|x| u64::from_value(x).ok()).unwrap_or(0)
}

fn ratio(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(|x| f64::from_value(x).ok()).unwrap_or(0.0)
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

/// Milliseconds of a simulated `update_delay_ns`.
fn update_ms(v: &Value) -> f64 {
    num(v, "update_delay_ns") as f64 / 1e6
}

/// The CLI text of a reply. Only deterministic fields are on the wire, so
/// there are no wall-clock times here; `status --metrics` has them.
pub(crate) fn render(reply: &Value) -> String {
    if reply.get("ok") != Some(&Value::Bool(true)) {
        return format!("error: {}", text(reply, "detail"));
    }
    match text(reply, "op") {
        "deploy" => {
            let reports = reply.get("reports").and_then(Value::as_array).unwrap_or(&[]);
            let line = |r: &Value| {
                format!(
                    "linked `{}` (id {}): {} entries, depth {}, {} pass(es), update {:.2} ms",
                    text(r, "name"),
                    num(r, "prog_id"),
                    num(r, "entries_installed"),
                    num(r, "depth"),
                    num(r, "passes"),
                    update_ms(r)
                )
            };
            reports.iter().map(line).collect::<Vec<_>>().join("\n")
        }
        "revoke" => {
            let r = reply.get("report").unwrap_or(&Value::Null);
            format!("revoked `{}` in {:.2} ms", text(r, "name"), update_ms(r))
        }
        "status" => match (reply.get("report"), reply.get("summary")) {
            (Some(report), _) => serde::json::to_string_pretty(report),
            (None, Some(Value::Str(summary))) => summary.clone(),
            _ => format!(
                "memory: {:.1}% used | rpb entries: {:.1}% used | init filters: {} | programs: {}",
                ratio(reply, "memory_utilization") * 100.0,
                ratio(reply, "entry_utilization") * 100.0,
                num(reply, "init_filters"),
                num(reply, "programs_deployed")
            ),
        },
        "metrics" => text(reply, "exposition").to_string(),
        "trace" if reply.get("enabled") == Some(&Value::Bool(true)) => format!(
            "tracing on: {} recorded, {} dropped, {} retained (capacity {}), {} violation(s)",
            num(reply, "recorded"),
            num(reply, "dropped"),
            num(reply, "retained"),
            num(reply, "capacity"),
            num(reply, "violations")
        ),
        "trace" => "tracing off".to_string(),
        "ping" => {
            format!("pong: epoch {}, sim clock {} ns", num(reply, "epoch"), num(reply, "now_ns"))
        }
        "shutdown" => "server draining: every later request is refused".to_string(),
        _ => serde::json::to_string(reply),
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
        assert_eq!(op, Op::Status(StatusView::Report));

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

    /// Every op the CLI grammar makes goes on the wire as a request that
    /// parses back into the same op.
    #[test]
    fn cli_ops_round_trip_through_the_request_grammar() {
        let lines = [
            ("deploy", "program p() {}\\nx"),
            ("revoke", "p"),
            ("status", ""),
            ("status", "--json"),
            ("status", "--metrics"),
            ("trace", "status"),
            ("metrics", "export -"),
            ("ping", ""),
            ("shutdown", ""),
        ];
        for (cmd, rest) in lines {
            let Parsed::Shared(op, None) = parse_line(cmd, rest) else {
                panic!("`{cmd} {rest}` is a shared command");
            };
            let line = serde::json::to_string(&op.clone().into_request(9));
            assert_eq!(parse_request(&line, 1), Ok((9, op)), "{line}");
        }
        assert!(matches!(
            parse_line("deploy", "program p() {}"),
            Parsed::Shared(Op::Deploy { .. }, _)
        ));
        assert!(matches!(
            parse_line("metrics", "export m.prom"),
            Parsed::Shared(_, Some("m.prom"))
        ));
        for (cmd, rest) in [("deploy", ""), ("revoke", "a b"), ("status", "--xml"), ("ping", "x")] {
            assert!(matches!(parse_line(cmd, rest), Parsed::Malformed), "{cmd} {rest}");
        }
        for (cmd, rest) in [("trace", "on"), ("programs", ""), ("frobnicate", "")] {
            assert!(matches!(parse_line(cmd, rest), Parsed::Local), "{cmd} {rest}");
        }
    }

    #[test]
    fn error_replies_are_single_line_json() {
        let text = serde::json::to_string(&error_reply(3, "busy", "line 1: too much"));
        assert!(!text.contains('\n'), "{text}");
        let doc = serde::json::parse(&text).unwrap();
        assert_eq!(doc.get("id"), Some(&Value::U64(3)));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("error"), Some(&Value::Str("busy".into())));
        assert_eq!(render(&doc), "error: line 1: too much");
    }
}
