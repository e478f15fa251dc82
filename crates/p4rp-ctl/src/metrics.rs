//! Prometheus-style metrics export, the `p4rp top` ranking view, and the
//! routing of the server's `/metrics` endpoint.
//!
//! [`render_prometheus`] flattens a [`TelemetryReport`] into the
//! Prometheus text exposition format (version 0.0.4): `# HELP` / `# TYPE`
//! comment pairs, counters suffixed `_total`, gauges bare, and the
//! control-channel write-latency histogram as cumulative `_bucket{le=…}`
//! rows plus `_sum` / `_count`. [`parse_prometheus`] is the matching
//! strict parser — CI uses it to assert every exported line is
//! well-formed and that counter values survive a round trip.
//!
//! [`http_response`] routes one HTTP request head (405 for non-GET, 404
//! off `/metrics`) for the persistent `server` module, which answers
//! scrapers on the port of `p4rp serve` (`docs/SERVER.md`) without
//! pulling in an HTTP stack.

use crate::telemetry::TelemetryReport;
use std::fmt::Write as _;

/// One parsed exposition sample: metric name, label pairs (sorted as
/// written), and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label key/value pairs, in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn escape_label(v: &str) -> String {
    // Backslash first so the escapes it introduces aren't re-escaped.
    // `\r` must be escaped too: a raw CR inside a label value survives an
    // in-memory round trip (`str::lines` only splits on `\n`), but the
    // exposition travels over HTTP where proxies and scrapers split on
    // `\r\n` — a bare CR silently truncates the label value on the wire.
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\r', "\\r")
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &[(&str, String)], value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let body: Vec<String> =
            labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
        let _ = writeln!(out, "{name}{{{}}} {value}", body.join(","));
    }
}

/// Flatten a telemetry report into the Prometheus text exposition format.
pub fn render_prometheus(report: &TelemetryReport) -> String {
    let mut out = String::new();

    header(&mut out, "p4rp_schema_version", "status --json document version.", "gauge");
    sample(&mut out, "p4rp_schema_version", &[], report.schema_version as f64);
    header(&mut out, "p4rp_epoch", "Telemetry epoch (lifecycle events so far).", "gauge");
    sample(&mut out, "p4rp_epoch", &[], report.epoch as f64);
    header(&mut out, "p4rp_programs_deployed", "Programs currently deployed.", "gauge");
    sample(&mut out, "p4rp_programs_deployed", &[], report.programs_deployed as f64);

    let r = &report.resources;
    header(&mut out, "p4rp_memory_utilization", "Fraction of RPB register memory in use.", "gauge");
    sample(&mut out, "p4rp_memory_utilization", &[], r.memory_utilization);
    header(&mut out, "p4rp_entry_utilization", "Fraction of RPB table entries in use.", "gauge");
    sample(&mut out, "p4rp_entry_utilization", &[], r.entry_utilization);
    header(&mut out, "p4rp_filter_entries_used", "Filter-table entries in use, by table.", "gauge");
    sample(&mut out, "p4rp_filter_entries_used", &[("table", "init".into())], r.init_used as f64);
    sample(
        &mut out,
        "p4rp_filter_entries_used",
        &[("table", "recirc".into())],
        r.recirc_used as f64,
    );

    if let Some(dp) = &report.dataplane {
        header(&mut out, "p4rp_tm_verdicts_total", "Traffic-manager verdicts, by kind.", "counter");
        for (kind, v) in [
            ("forwarded", dp.tm.forwarded.get()),
            ("returned", dp.tm.returned.get()),
            ("dropped", dp.tm.dropped.get()),
            ("recirculated", dp.tm.recirculated.get()),
            ("multicast", dp.tm.multicast.get()),
            ("report", dp.tm.reports.get()),
        ] {
            sample(&mut out, "p4rp_tm_verdicts_total", &[("verdict", kind.into())], v as f64);
        }
        header(&mut out, "p4rp_table_hits_total", "Match-table hits, by gress.", "counter");
        header(&mut out, "p4rp_table_misses_total", "Match-table misses, by gress.", "counter");
        header(&mut out, "p4rp_salu_rmws_total", "Stateful-ALU read-modify-writes, by gress.", "counter");
        for (gress, m) in [("ingress", dp.ingress.total()), ("egress", dp.egress.total())] {
            let labels = [("gress", gress.to_string())];
            sample(&mut out, "p4rp_table_hits_total", &labels, m.hits.get() as f64);
            sample(&mut out, "p4rp_table_misses_total", &labels, m.misses.get() as f64);
            sample(&mut out, "p4rp_salu_rmws_total", &labels, m.salu_reads.get() as f64);
        }
    }

    if !report.programs.is_empty() {
        header(&mut out, "p4rp_program_packets_total", "Packets attributed per program.", "counter");
        header(&mut out, "p4rp_program_forwarded_total", "Forwarded verdicts per program.", "counter");
        header(&mut out, "p4rp_program_drops_total", "Drop verdicts per program.", "counter");
        header(&mut out, "p4rp_program_recirc_passes_total", "Recirculation passes per program.", "counter");
        header(&mut out, "p4rp_program_hits_total", "Match-table hits per program.", "counter");
        header(&mut out, "p4rp_program_salu_rmws_total", "Stateful-ALU RMWs per program.", "counter");
        header(&mut out, "p4rp_program_entries", "Table entries held per program.", "gauge");
        header(&mut out, "p4rp_program_memory_buckets", "Register buckets held per program.", "gauge");
        header(&mut out, "p4rp_program_resource_share", "Share of program-held resources.", "gauge");
        for p in &report.programs {
            let labels = [("program", p.name.clone()), ("prog_id", p.prog_id.to_string())];
            sample(&mut out, "p4rp_program_packets_total", &labels, p.packets as f64);
            sample(&mut out, "p4rp_program_forwarded_total", &labels, p.forwarded as f64);
            sample(&mut out, "p4rp_program_drops_total", &labels, p.drops as f64);
            sample(&mut out, "p4rp_program_recirc_passes_total", &labels, p.recirc_passes as f64);
            sample(&mut out, "p4rp_program_hits_total", &labels, p.hits as f64);
            sample(&mut out, "p4rp_program_salu_rmws_total", &labels, p.salu_rmws as f64);
            sample(&mut out, "p4rp_program_entries", &labels, p.entries as f64);
            sample(&mut out, "p4rp_program_memory_buckets", &labels, p.memory as f64);
            sample(&mut out, "p4rp_program_resource_share", &labels, p.resource_share);
        }
    }

    // Control-channel write latency as a cumulative Prometheus histogram.
    histogram_rows(
        &mut out,
        "p4rp_control_write_latency_ns",
        "Mutating control-channel operation latency.",
        &report.control_write_latency,
    );

    let fs = &report.faults;
    header(&mut out, "p4rp_faults_injected_total", "Control-channel faults fired.", "counter");
    sample(&mut out, "p4rp_faults_injected_total", &[], fs.faults_injected as f64);
    header(&mut out, "p4rp_deploy_faults_total", "Deploys aborted by a mid-plan fault.", "counter");
    sample(&mut out, "p4rp_deploy_faults_total", &[], fs.deploy_faults as f64);
    header(&mut out, "p4rp_rollbacks_total", "Rollbacks executed after faults.", "counter");
    sample(&mut out, "p4rp_rollbacks_total", &[], fs.rollbacks as f64);

    if let Some(slo) = &report.slo {
        header(&mut out, "p4rp_slo_violations_total", "SLO breach transitions observed.", "counter");
        sample(&mut out, "p4rp_slo_violations_total", &[], slo.violations as f64);
        header(&mut out, "p4rp_slo_breached", "1 when the SLO kind is currently in breach.", "gauge");
        for kind in ["drop_rate", "deploy_failure", "p99_latency"] {
            let breached = slo.breached.iter().any(|b| b == kind);
            sample(
                &mut out,
                "p4rp_slo_breached",
                &[("slo", kind.into())],
                if breached { 1.0 } else { 0.0 },
            );
        }
    }

    if let Some(sv) = &report.server {
        header(&mut out, "p4rp_server_sessions_total", "Client connections, by accept outcome.", "counter");
        sample(&mut out, "p4rp_server_sessions_total", &[("outcome", "accepted".into())], sv.accepted as f64);
        sample(
            &mut out,
            "p4rp_server_sessions_total",
            &[("outcome", "rejected".into())],
            sv.rejected_max_clients as f64,
        );
        header(&mut out, "p4rp_server_requests_total", "Requests parsed while the server was not draining.", "counter");
        sample(&mut out, "p4rp_server_requests_total", &[], sv.requests as f64);
        header(&mut out, "p4rp_server_responses_total", "Executed requests, by outcome.", "counter");
        sample(&mut out, "p4rp_server_responses_total", &[("outcome", "ok".into())], sv.responses_ok as f64);
        sample(&mut out, "p4rp_server_responses_total", &[("outcome", "error".into())], sv.responses_err as f64);
        header(&mut out, "p4rp_server_rejected_total", "Requests refused unexecuted, by reason.", "counter");
        for (reason, v) in [
            ("busy", sv.rejected_busy),
            ("rate_limited", sv.rejected_rate_limited),
            ("timeout", sv.rejected_timeout),
            ("draining", sv.rejected_draining),
        ] {
            sample(&mut out, "p4rp_server_rejected_total", &[("reason", reason.into())], v as f64);
        }
        header(&mut out, "p4rp_server_parse_errors_total", "Malformed request lines.", "counter");
        sample(&mut out, "p4rp_server_parse_errors_total", &[], sv.parse_errors as f64);
        header(&mut out, "p4rp_server_batches_total", "Executed requests, one per critical section.", "counter");
        sample(&mut out, "p4rp_server_batches_total", &[], sv.batches as f64);
        header(&mut out, "p4rp_server_batched_ops_total", "Executed deploys and revokes.", "counter");
        sample(&mut out, "p4rp_server_batched_ops_total", &[("op", "deploy".into())], sv.batched_deploys as f64);
        sample(&mut out, "p4rp_server_batched_ops_total", &[("op", "revoke".into())], sv.batched_revokes as f64);
        header(&mut out, "p4rp_server_http_total", "One-shot HTTP scrape requests, by outcome.", "counter");
        sample(&mut out, "p4rp_server_http_total", &[("outcome", "scraped".into())], sv.http_gets as f64);
        sample(&mut out, "p4rp_server_http_total", &[("outcome", "rejected".into())], sv.http_rejected as f64);
        histogram_rows(
            &mut out,
            "p4rp_server_request_latency_ns",
            "Sim-clock submit-to-response request latency.",
            &sv.request_latency,
        );
    }
    out
}

/// One cumulative Prometheus histogram: `_bucket{le=…}` rows ending at
/// `+Inf`, plus `_sum` and `_count`.
fn histogram_rows(out: &mut String, base: &str, help: &str, h: &rmt_sim::telemetry::Histogram) {
    header(out, base, help, "histogram");
    let mut cum = 0u64;
    for (edge, c) in h.bounds().iter().zip(h.bucket_counts()) {
        cum += c;
        sample(out, &format!("{base}_bucket"), &[("le", edge.to_string())], cum as f64);
    }
    sample(out, &format!("{base}_bucket"), &[("le", "+Inf".into())], h.count() as f64);
    sample(out, &format!("{base}_sum"), &[], h.sum() as f64);
    sample(out, &format!("{base}_count"), &[], h.count() as f64);
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse a text exposition document back into samples, validating metric
/// and label syntax strictly. Returns a line-tagged error on the first
/// malformed row.
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let c = comment.trim_start();
            if !(c.starts_with("HELP ") || c.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment form: {raw}", lineno + 1));
            }
            continue;
        }
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {}: unterminated label set", lineno + 1))?;
                (&line[..brace], Some((&line[brace + 1..close], &line[close + 1..])))
            }
            None => match line.split_once(char::is_whitespace) {
                Some((n, v)) => (n, Some(("", v))),
                None => return Err(format!("line {}: missing value: {raw}", lineno + 1)),
            },
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {}: bad metric name `{name_part}`", lineno + 1));
        }
        let (label_body, value_part) = rest.expect("set above");
        let mut labels = Vec::new();
        if !label_body.is_empty() {
            let mut chars = label_body.chars().peekable();
            loop {
                let mut key = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                    chars.next();
                }
                if chars.next() != Some('=') {
                    return Err(format!("line {}: label without `=`", lineno + 1));
                }
                if !valid_label_name(&key) {
                    return Err(format!("line {}: bad label name `{key}`", lineno + 1));
                }
                if chars.next() != Some('"') {
                    return Err(format!("line {}: unquoted label value", lineno + 1));
                }
                let mut val = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('\\') => val.push('\\'),
                            Some('"') => val.push('"'),
                            Some('n') => val.push('\n'),
                            Some('r') => val.push('\r'),
                            other => {
                                return Err(format!(
                                    "line {}: bad escape `\\{}`",
                                    lineno + 1,
                                    other.map(String::from).unwrap_or_default()
                                ))
                            }
                        },
                        Some('"') => break,
                        Some(c) => val.push(c),
                        None => {
                            return Err(format!("line {}: unterminated label value", lineno + 1))
                        }
                    }
                }
                labels.push((key, val));
                match chars.next() {
                    Some(',') => continue,
                    None => break,
                    Some(c) => {
                        return Err(format!("line {}: expected `,` or `}}`, got `{c}`", lineno + 1))
                    }
                }
            }
        }
        let value_text = value_part.trim();
        if value_text.is_empty() {
            return Err(format!("line {}: missing value: {raw}", lineno + 1));
        }
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad value `{v}`", lineno + 1))?,
        };
        samples.push(Sample { name: name_part.to_string(), labels, value });
    }
    Ok(samples)
}

/// The `p4rp top` view: resident programs ranked by attributed packets
/// (ties: hits, then program id), over a short global header. Returns a
/// hint to enable attribution when the report carries no program rows.
pub fn render_top(report: &TelemetryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "p4rp top — epoch {} | {} program(s) deployed",
        report.epoch, report.programs_deployed
    ));
    if let Some(dp) = &report.dataplane {
        out.push_str(&format!(
            " | tm fwd {} drop {} recirc {}",
            dp.tm.forwarded.get(),
            dp.tm.dropped.get(),
            dp.tm.recirculated.get()
        ));
    }
    out.push('\n');
    if let Some(slo) = &report.slo {
        out.push_str(&format!(
            "slo: {} violation(s){}\n",
            slo.violations,
            if slo.breached.is_empty() {
                String::new()
            } else {
                format!(" | IN BREACH: {}", slo.breached.join(", "))
            }
        ));
    }
    if report.programs.is_empty() {
        out.push_str("no per-program rows — enable attribution (`p4rp top` does, or `Controller::enable_attribution`) and replay traffic\n");
        return out;
    }
    let mut rows = report.programs.clone();
    rows.sort_by(|a, b| {
        b.packets.cmp(&a.packets).then(b.hits.cmp(&a.hits)).then(a.prog_id.cmp(&b.prog_id))
    });
    out.push_str(&format!(
        "{:<16} {:>4} {:>10} {:>10} {:>8} {:>8} {:>10} {:>8} {:>8} {:>7} {:>7}\n",
        "PROGRAM", "ID", "PACKETS", "FWD", "DROPS", "RECIRC", "HITS", "SALU", "ENTRIES", "MEM", "SHARE"
    ));
    for p in &rows {
        out.push_str(&format!(
            "{:<16} {:>4} {:>10} {:>10} {:>8} {:>8} {:>10} {:>8} {:>8} {:>7} {:>6.1}%\n",
            p.name,
            p.prog_id,
            p.packets,
            p.forwarded,
            p.drops,
            p.recirc_passes,
            p.hits,
            p.salu_rmws,
            p.entries,
            p.memory,
            p.resource_share * 100.0
        ));
    }
    out
}

/// Route one raw HTTP request head against the single `/metrics`
/// endpoint and build the full response document. Returns the status
/// code alongside the wire bytes so callers can count outcomes:
///
/// * `GET /metrics` → `200` with `body` as `text/plain; version=0.0.4`,
/// * any other method → `405 Method Not Allowed` (with `Allow: GET`),
/// * any other path → `404 Not Found`,
/// * anything that isn't an HTTP request line → `400 Bad Request`.
///
/// Used by the persistent `server` module, which answers scrapers on the
/// same port as the line-framed JSON protocol.
pub fn http_response(request_head: &str, body: &str) -> (u16, String) {
    let request_line = request_head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let respond = |status: u16, reason: &str, extra: &str, content_type: &str, payload: &str| {
        (
            status,
            format!(
                "HTTP/1.1 {status} {reason}\r\n{extra}Content-Type: {content_type}\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
                payload.len()
            ),
        )
    };
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
        return respond(400, "Bad Request", "", "text/plain", "bad request\n");
    }
    if method != "GET" {
        return respond(405, "Method Not Allowed", "Allow: GET\r\n", "text/plain", "method not allowed\n");
    }
    if path != "/metrics" {
        return respond(404, "Not Found", "", "text/plain", "not found; scrape /metrics\n");
    }
    respond(200, "OK", "", "text/plain; version=0.0.4", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resman::ResourceManager;
    use crate::telemetry::{
        FaultStats, ProgramUsage, ResourceGauges, ServerStats, SloStatus, SloThresholds,
        SCHEMA_VERSION,
    };
    use rmt_sim::telemetry::{Histogram, MetricsRecorder};
    use rmt_sim::trace::TraceStats;
    use crate::telemetry::TelemetryReport;

    fn report() -> TelemetryReport {
        let mut h = Histogram::exponential(10_000, 2, 8);
        h.observe(15_000);
        h.observe(400_000);
        let mut dp = MetricsRecorder::new();
        dp.tm.forwarded.add(90);
        dp.tm.dropped.add(10);
        TelemetryReport {
            schema_version: SCHEMA_VERSION,
            epoch: 3,
            programs_deployed: 1,
            spans: Vec::new(),
            resources: ResourceGauges::collect(&ResourceManager::new()),
            control_write_latency: h,
            dataplane: Some(dp),
            trace: TraceStats::disabled(),
            faults: FaultStats::default(),
            parallel: None,
            programs: vec![ProgramUsage {
                name: "cache \"v2\"".into(),
                prog_id: 1,
                packets: 100,
                forwarded: 90,
                drops: 10,
                recirc_passes: 4,
                hits: 200,
                salu_rmws: 7,
                entries: 9,
                memory: 64,
                resource_share: 1.0,
            }],
            slo: Some(SloStatus {
                thresholds: SloThresholds { max_drop_ppm: Some(1_000), ..Default::default() },
                violations: 2,
                breached: vec!["drop_rate".into()],
            }),
            series: None,
            tables: Vec::new(),
            server: None,
        }
    }

    #[test]
    fn exposition_round_trips_counter_values() {
        let r = report();
        let text = render_prometheus(&r);
        let samples = parse_prometheus(&text).expect("well-formed exposition");
        let find = |name: &str, key: &str, val: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.label(key) == Some(val))
                .unwrap_or_else(|| panic!("missing {name}{{{key}={val}}}"))
                .value
        };
        assert_eq!(find("p4rp_tm_verdicts_total", "verdict", "dropped"), 10.0);
        assert_eq!(find("p4rp_program_packets_total", "prog_id", "1"), 100.0);
        // Label escaping survives the round trip.
        assert_eq!(
            samples
                .iter()
                .find(|s| s.name == "p4rp_program_drops_total")
                .and_then(|s| s.label("program")),
            Some("cache \"v2\"")
        );
        // Histogram buckets are cumulative and end at +Inf == _count.
        let inf = find("p4rp_control_write_latency_ns_bucket", "le", "+Inf");
        let count = samples
            .iter()
            .find(|s| s.name == "p4rp_control_write_latency_ns_count")
            .unwrap()
            .value;
        assert_eq!(inf, count);
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "p4rp_control_write_latency_ns_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets must be monotone: {buckets:?}");
        assert_eq!(find("p4rp_slo_breached", "slo", "drop_rate"), 1.0);
        assert_eq!(find("p4rp_slo_breached", "slo", "p99_latency"), 0.0);
    }

    #[test]
    fn carriage_returns_in_label_values_are_escaped() {
        // Regression: a raw CR inside a label value used to pass through
        // `escape_label` untouched — wire-safe framing (and symmetry with
        // the `\n` escape) requires it rendered as `\r`.
        let mut r = report();
        r.programs[0].name = "cr\rlf\nmix \"q\" \\ end".into();
        let text = render_prometheus(&r);
        assert!(!text.contains('\r'), "raw CR leaked into the exposition");
        let samples = parse_prometheus(&text).expect("well-formed exposition");
        let name = samples
            .iter()
            .find(|s| s.name == "p4rp_program_packets_total")
            .and_then(|s| s.label("program"))
            .expect("program label");
        assert_eq!(name, "cr\rlf\nmix \"q\" \\ end");
    }

    #[test]
    fn server_rows_render_and_round_trip() {
        let mut r = report();
        let mut sv = ServerStats::new();
        sv.accepted = 5;
        sv.rejected_max_clients = 2;
        sv.requests = 40;
        sv.responses_ok = 30;
        sv.responses_err = 4;
        sv.rejected_busy = 3;
        sv.rejected_rate_limited = 2;
        sv.rejected_timeout = 1;
        sv.parse_errors = 6;
        sv.batches = 9;
        sv.batched_deploys = 12;
        sv.batched_revokes = 7;
        sv.http_gets = 2;
        sv.http_rejected = 1;
        sv.request_latency.observe(55_000);
        sv.request_latency.observe(90_000);
        r.server = Some(sv);
        let text = render_prometheus(&r);
        let samples = parse_prometheus(&text).expect("well-formed exposition");
        let find = |name: &str, key: &str, val: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.label(key) == Some(val))
                .unwrap_or_else(|| panic!("missing {name}{{{key}={val}}}"))
                .value
        };
        assert_eq!(find("p4rp_server_sessions_total", "outcome", "accepted"), 5.0);
        assert_eq!(find("p4rp_server_sessions_total", "outcome", "rejected"), 2.0);
        assert_eq!(find("p4rp_server_responses_total", "outcome", "ok"), 30.0);
        assert_eq!(find("p4rp_server_rejected_total", "reason", "busy"), 3.0);
        assert_eq!(find("p4rp_server_rejected_total", "reason", "rate_limited"), 2.0);
        assert_eq!(find("p4rp_server_batched_ops_total", "op", "deploy"), 12.0);
        assert_eq!(find("p4rp_server_http_total", "outcome", "scraped"), 2.0);
        assert_eq!(find("p4rp_server_request_latency_ns_bucket", "le", "+Inf"), 2.0);
        // A report without server stats renders none of the rows.
        let bare = render_prometheus(&report());
        assert!(!bare.contains("p4rp_server_"), "{bare}");
    }

    #[test]
    fn http_response_routes_by_method_and_path() {
        // Regression: the old endpoint answered 200 OK to *any* bytes.
        let body = "p4rp_epoch 3\n";
        let (status, resp) = http_response("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", body);
        assert_eq!(status, 200);
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        assert!(resp.ends_with(body), "{resp}");
        let (status, resp) = http_response("POST /metrics HTTP/1.1\r\n\r\n", body);
        assert_eq!(status, 405);
        assert!(resp.contains("Allow: GET"), "{resp}");
        assert!(!resp.contains("p4rp_epoch"), "{resp}");
        let (status, resp) = http_response("DELETE /metrics HTTP/1.1\r\n\r\n", body);
        assert_eq!(status, 405, "{resp}");
        let (status, resp) = http_response("GET /other HTTP/1.1\r\n\r\n", body);
        assert_eq!(status, 404);
        assert!(!resp.contains("p4rp_epoch"), "{resp}");
        let (status, _) = http_response("GET / HTTP/1.1\r\n\r\n", body);
        assert_eq!(status, 404);
        let (status, _) = http_response("garbage bytes\r\n\r\n", body);
        assert_eq!(status, 400);
        let (status, _) = http_response("", body);
        assert_eq!(status, 400);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("9bad_name 1").is_err());
        assert!(parse_prometheus("m{label=unquoted} 1").is_err());
        assert!(parse_prometheus("m{l=\"open} 1").is_err());
        assert!(parse_prometheus("m{2l=\"x\"} 1").is_err());
        assert!(parse_prometheus("m one").is_err());
        assert!(parse_prometheus("m").is_err());
        assert!(parse_prometheus("# BOGUS comment").is_err());
        assert_eq!(
            parse_prometheus("ok{a=\"b\"} 2").unwrap(),
            vec![Sample { name: "ok".into(), labels: vec![("a".into(), "b".into())], value: 2.0 }]
        );
    }

    #[test]
    fn top_ranks_by_packets_and_flags_breaches() {
        let mut r = report();
        r.programs.push(ProgramUsage {
            name: "heavy".into(),
            prog_id: 2,
            packets: 500,
            ..ProgramUsage::default()
        });
        let top = render_top(&r);
        let heavy = top.find("heavy").unwrap();
        let cache = top.find("cache").unwrap();
        assert!(heavy < cache, "rows must rank by packets:\n{top}");
        assert!(top.contains("IN BREACH: drop_rate"), "{top}");
        r.programs.clear();
        assert!(render_top(&r).contains("enable attribution"));
    }
}
