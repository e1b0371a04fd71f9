//! End-to-end request tracing over one real server: boot
//! `archdse serve --trace-out`, drive traced evaluates and a traced
//! explore job, and verify the acceptance criteria of the tracing layer
//! — every traced request is recorded under its client id, ≥95% of wall
//! time is attributed to named phases, every coalesced batch span links
//! back to its member requests, the flight recorder saw the requests,
//! and `trace-report --requests` agrees with all of it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

/// One raw HTTP/1.1 exchange with optional extra headers; returns
/// (status, headers, body).
fn raw_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    write!(stream, "{head}{body}").expect("send");
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let status: u16 =
        raw.strip_prefix("HTTP/1.1 ").and_then(|r| r.get(..3)).unwrap().parse().unwrap();
    let (headers, body) = raw.split_once("\r\n\r\n").unwrap_or(("", ""));
    (status, headers.to_string(), body.to_string())
}

fn boot_traced_server(trace_path: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_archdse"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--benchmark",
            "ss",
            "--trace-len",
            "1000",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("binary starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).expect("announce") > 0, "server died while booting");
        if let Some(addr) = line.trim().strip_prefix("archdse-serve listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the child never blocks on the pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(stdout.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr)
}

fn wait_exit(mut child: Child) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("wait") {
            Some(exit) => {
                assert!(exit.success(), "server exited with {exit:?}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("server did not exit within 60s of shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Parses every JSONL line of one trace file.
fn read_trace(path: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing trace file {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e}")))
        .collect()
}

fn requests_of(records: &[Value]) -> Vec<&Value> {
    records.iter().filter(|v| v.get("type").and_then(Value::as_str) == Some("request")).collect()
}

/// Sums the named phase fields (`*_us` minus `ts_us`/`dur_us`) of one
/// request record.
fn phase_sum(record: &Value) -> u64 {
    record
        .as_map()
        .expect("record is an object")
        .iter()
        .filter(|(k, _)| k.ends_with("_us") && k != "ts_us" && k != "dur_us")
        .map(|(_, v)| v.as_u64().unwrap_or(0))
        .sum()
}

#[test]
fn traced_server_run_reconciles_end_to_end() {
    let dir = std::env::temp_dir().join(format!("archdse_req_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let (child, addr) = boot_traced_server(&trace_path);

    // Drive traced evaluates with client-chosen ids, spread over the
    // space.
    let ids: Vec<String> = (0..8).map(|i| format!("req{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let body = format!(
            "{{\"points\":[{},{},{},{}],\"fidelity\":\"lf\"}}",
            i,
            i + 251,
            i + 1021,
            i + 4003
        );
        let (status, headers, resp) =
            raw_request(&addr, "POST", "/v1/evaluate", &body, &[("X-ArchDSE-Trace", id)]);
        assert_eq!(status, 200, "{resp}");
        // The phase breakdown comes back to the client on the wire.
        let timing = headers
            .lines()
            .find(|l| l.to_ascii_lowercase().starts_with("server-timing:"))
            .unwrap_or_else(|| panic!("no Server-Timing header:\n{headers}"));
        assert!(timing.contains("app;dur="), "{timing}");
    }

    // The flight recorder sees them without any parsing of trace files.
    let (status, _, debug) = raw_request(&addr, "GET", "/debug/requests", "", &[]);
    assert_eq!(status, 200, "{debug}");
    let debug: Value = serde_json::from_str(&debug).expect("debug JSON");
    let recorded = debug["recorded"].as_u64().expect("recorded count");
    assert!(recorded >= ids.len() as u64, "flight recorder saw {recorded} requests");

    // An explore job started and polled under client ids.
    let spec = r#"{"benchmark": "ss", "lf_episodes": 5, "hf_budget": 1, "trace_len": 500}"#;
    let (status, _, started) =
        raw_request(&addr, "POST", "/v1/explore", spec, &[("X-ArchDSE-Trace", "job-start")]);
    assert_eq!(status, 200, "{started}");
    let job = serde_json::from_str::<Value>(&started).expect("job JSON")["job"].as_u64().unwrap();
    let poll = format!("/v1/jobs/{job}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, polled) =
            raw_request(&addr, "GET", &poll, "", &[("X-ArchDSE-Trace", "job-poll")]);
        assert_eq!(status, 200, "{polled}");
        let state = serde_json::from_str::<Value>(&polled).expect("job JSON")["state"].clone();
        assert_ne!(state.as_str(), Some("failed"), "{polled}");
        if state.as_str() == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "job {job} never finished");
        std::thread::sleep(Duration::from_millis(100));
    }

    let (status, _, _) = raw_request(&addr, "POST", "/v1/shutdown", "", &[]);
    assert_eq!(status, 200);
    wait_exit(child);

    let records = read_trace(&trace_path);
    let requests = requests_of(&records);

    // Every traced client request is recorded under its own id.
    for id in &ids {
        let row = requests
            .iter()
            .find(|r| r["trace"].as_str() == Some(id))
            .unwrap_or_else(|| panic!("server never recorded {id}"));
        assert_eq!(row["role"].as_str(), Some("server"));
        assert_eq!(row["endpoint"].as_str(), Some("evaluate"));
    }
    for id in ["job-start", "job-poll"] {
        assert!(requests.iter().any(|r| r["trace"].as_str() == Some(id)), "{id} not recorded");
    }

    // ≥95% of each traced evaluate's wall time is attributed to named
    // phases, and no record claims more than its wall time.
    for row in &requests {
        let dur = row["dur_us"].as_u64().expect("dur_us");
        let attributed = phase_sum(row);
        assert!(attributed <= dur, "phase sums exceed wall time: {row:?}");
        if row["endpoint"].as_str() == Some("evaluate") && dur > 0 {
            assert!(
                attributed as f64 >= 0.95 * dur as f64,
                "only {attributed} of {dur} µs attributed: {row:?}"
            );
        }
    }

    // Every coalesced batch span links to all of its member requests:
    // each traced evaluate id shows up in some batch's links.
    let mut linked: Vec<String> = Vec::new();
    for record in &records {
        if record.get("name").and_then(Value::as_str) == Some("ledger_batch") {
            if let Some(links) = record.get("links").and_then(Value::as_array) {
                linked.extend(links.iter().filter_map(Value::as_str).map(str::to_string));
            }
        }
    }
    for id in &ids {
        assert!(linked.iter().any(|l| l == id), "{id} missing from every batch's span links");
    }

    // The offline report agrees and passes verification (exit 0).
    let out = Command::new(env!("CARGO_BIN_EXE_archdse"))
        .args(["trace-report", "--requests", "--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("trace-report runs");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "trace-report --requests failed:\n{report}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(report.contains("every check passed"), "{report}");
    assert!(report.contains("per-phase percentiles"), "{report}");

    let _ = std::fs::remove_dir_all(&dir);
}
