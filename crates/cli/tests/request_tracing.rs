//! End-to-end request tracing over a real 2-shard stack: boot
//! `archdse serve --shards 2 --trace-out`, drive traced evaluates and a
//! traced explore job through the router, and verify the acceptance
//! criteria of the tracing layer — 100% of router request spans join shard-side
//! spans, ≥95% of wall time is attributed to named phases, every
//! coalesced batch span links back to its member requests, and
//! `trace-report --requests` agrees with all of it.

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

fn boot_traced_stack(trace_path: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_archdse"))
        .args([
            "serve",
            "--shards",
            "2",
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
        assert!(stdout.read_line(&mut line).expect("announce") > 0, "stack died while booting");
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
                assert!(exit.success(), "stack exited with {exit:?}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("stack did not exit within 60s of shutdown");
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
fn traced_two_shard_run_reconciles_end_to_end() {
    let dir = std::env::temp_dir().join(format!("archdse_req_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let (child, addr) = boot_traced_stack(&trace_path);

    // Drive traced evaluates with client-chosen ids; spread the points
    // so single requests fan out to both shard owners.
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
    assert!(debug.get("router").is_some() && debug.get("shards").is_some());
    let shard_dumps = debug["shards"].as_array().expect("per-shard dumps");
    assert_eq!(shard_dumps.len(), 2);
    let recorded: u64 = shard_dumps.iter().map(|s| s["recorded"].as_u64().unwrap_or(0)).sum();
    assert!(recorded >= ids.len() as u64, "flight recorders saw {recorded} requests");

    // An explore job started and polled through the router under client
    // ids: each poll must reach its shard with the same id.
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

    let router_records = read_trace(&trace_path);
    let shard_paths = [dir.join("trace.shard0.jsonl"), dir.join("trace.shard1.jsonl")];
    let shard_records: Vec<Vec<Value>> = shard_paths.iter().map(|p| read_trace(p)).collect();

    // Router request spans: role "router", no shard stamp, one per
    // traced client request.
    let router_requests = requests_of(&router_records);
    for id in &ids {
        let row = router_requests
            .iter()
            .find(|r| r["trace"].as_str() == Some(id))
            .unwrap_or_else(|| panic!("router never recorded {id}"));
        assert_eq!(row["role"].as_str(), Some("router"));
        assert_eq!(row["endpoint"].as_str(), Some("evaluate"));
        assert!(row.get("shard").is_none(), "router records carry no shard stamp");
    }

    // 100% join: every router evaluate span has at least one shard-side
    // span with the same trace id, stamped with shard + pid.
    let mut shard_ids_seen: Vec<&str> = Vec::new();
    for (shard, records) in shard_records.iter().enumerate() {
        for row in requests_of(records) {
            assert_eq!(row["shard"].as_u64(), Some(shard as u64), "shard stamp");
            assert!(row["pid"].as_u64().is_some(), "pid stamp");
            if let Some(id) = row["trace"].as_str() {
                shard_ids_seen.push(id);
            }
        }
    }
    for id in ids.iter().map(String::as_str).chain(["job-start", "job-poll"]) {
        assert!(shard_ids_seen.contains(&id), "{id} joined no shard request span");
    }

    // ≥95% of each traced request's wall time is attributed to named
    // phases, and no record claims more than its wall time.
    for records in std::iter::once(&router_records).chain(shard_records.iter()) {
        for row in requests_of(records) {
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
    }

    // Every coalesced batch span links to all of its member requests:
    // each traced evaluate id shows up in some shard batch's links.
    let mut linked: Vec<String> = Vec::new();
    for records in &shard_records {
        for record in records.iter() {
            if record.get("name").and_then(Value::as_str) == Some("ledger_batch") {
                if let Some(links) = record.get("links").and_then(Value::as_array) {
                    linked.extend(links.iter().filter_map(Value::as_str).map(str::to_string));
                }
            }
        }
    }
    for id in &ids {
        assert!(linked.iter().any(|l| l == id), "{id} missing from every batch's span links");
    }

    // The offline report agrees: merging the three files joins every
    // proxied router span and passes verification (exit 0).
    let merged = format!(
        "{},{},{}",
        trace_path.display(),
        shard_paths[0].display(),
        shard_paths[1].display()
    );
    let out = Command::new(env!("CARGO_BIN_EXE_archdse"))
        .args(["trace-report", "--requests", "--trace", &merged])
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
