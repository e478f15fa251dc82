//! The runtime CLI as one front end over the shared command model
//! (`p4rp_ctl::command`): a line prints the same text whether the CLI
//! runs it in-process or sends it to a served controller with
//! `client <addr> <line>`, and every CLI line the documentation shows is
//! still a command the CLI takes.

use p4runpro::p4rp_ctl::{parse_prometheus, Cli, TelemetryReport};
use p4runpro::Controller;

const SRC: &str = "program p(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) { FORWARD(3); }";

fn cli() -> Cli {
    Cli::new(Controller::with_defaults().unwrap())
}

/// Two fresh controllers: one served on loopback through the CLI's
/// `serve`, one driven in-process. The same script, line by line, prints
/// the same text on both, errors included.
#[test]
fn cli_and_client_print_the_same_text() {
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let serve_line = format!("serve {addr}");
    let server = std::thread::spawn(move || {
        let mut served = cli();
        let summary = served.exec(&serve_line);
        (summary, served)
    });
    let mut driver = cli();
    let over_socket = |driver: &mut Cli, line: &str| driver.exec(&format!("client {addr} {line}"));
    let mut attempts = 0;
    while over_socket(&mut driver, "trace").starts_with("error connecting") {
        attempts += 1;
        assert!(attempts < 500, "server never came up");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let mut local = cli();
    let script = [
        format!("deploy {SRC}"),
        "status".to_string(),
        "trace".to_string(),
        "deploy program q(<hdr.ipv4.dst, 10.0.0.2, 0xffffffff>) { FORWARD(; }".to_string(),
        "revoke p".to_string(),
        "revoke ghost".to_string(),
        "ping".to_string(),
    ];
    let mut texts = Vec::new();
    for line in &script {
        let in_process = local.exec(line);
        assert_eq!(in_process, over_socket(&mut driver, line), "`{line}`");
        texts.push(in_process);
    }
    assert!(texts[0].starts_with("linked `p` (id 1): "), "{}", texts[0]);
    assert!(texts[3].starts_with("error: "), "{}", texts[3]);
    assert_eq!(texts[5], "error: no deployed program `ghost`");

    // The served controller also counts its server's requests, so these
    // two differ in their figures; both must parse.
    for text in [local.exec("metrics export -"), over_socket(&mut driver, "metrics export -")] {
        parse_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    }
    for text in [local.exec("status --json"), over_socket(&mut driver, "status --json")] {
        TelemetryReport::from_json(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    }

    assert!(over_socket(&mut driver, "shutdown").starts_with("server draining"));
    let (summary, served) = server.join().unwrap();
    assert!(summary.contains("drained"), "{summary}");
    assert!(served.ctl.audit().unwrap().clean());
}

/// The CLI lines of README.md's transcripts (`> …`) and of docs/*.md's
/// (`p4rp> …`), inside fenced blocks.
fn documented_lines() -> Vec<String> {
    let mut docs = vec![std::path::PathBuf::from("README.md")];
    let mut pages: Vec<_> = std::fs::read_dir("docs")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    pages.sort();
    docs.extend(pages);
    let mut lines = Vec::new();
    for doc in docs {
        let mut fenced = false;
        for line in std::fs::read_to_string(&doc).unwrap().lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let prompt = line.strip_prefix("p4rp> ").or_else(|| line.strip_prefix("> "));
            if let (true, Some(cmd)) = (fenced, prompt) {
                let cmd = cmd.split(" # ").next().unwrap().trim();
                lines.push(cmd.to_string());
            }
        }
    }
    lines
}

/// Every documented CLI line is still a command the CLI takes: none is
/// answered `unknown command` or with a usage line. `serve` and `client`
/// need a listener, and a line with a `…` placeholder is not a command.
/// Paths under `results/` are written to a scratch directory instead.
#[test]
fn documented_cli_lines_still_exist() {
    let scratch = std::env::temp_dir().join(format!("p4rp-doc-lines-{}", std::process::id()));
    let lines = documented_lines();
    assert!(lines.len() >= 20, "found only {lines:?}");
    let mut ran = 0;
    for line in &lines {
        if line.starts_with("serve ") || line.starts_with("client ") || line.contains('…') {
            continue;
        }
        let line: Vec<String> = line
            .split_whitespace()
            .map(|w| match w.strip_prefix("results/") {
                Some(file) => scratch.join(file).display().to_string(),
                None => w.to_string(),
            })
            .collect();
        let line = line.join(" ");
        let out = cli().exec(&line);
        let refused = out.contains("unknown command")
            || out.contains("unknown flag")
            || out.contains("subcommand")
            || out.lines().any(|l| l.starts_with("usage:"));
        assert!(!refused, "documented line `{line}` is refused:\n{out}");
        ran += 1;
    }
    assert!(ran >= 15, "ran only {ran} of {lines:?}");
    std::fs::remove_dir_all(&scratch).ok();
}
