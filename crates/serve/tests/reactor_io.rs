//! Slow-client and raw-socket behavior of the readiness-loop I/O layer:
//! read deadlines (slow-loris gets a 408, idle sockets a quiet close),
//! dribbled-but-timely requests still served, and keep-alive reuse.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use archdse::Explorer;
use archdse_serve::{spawn, ServeConfig, ServerHandle};
use dse_workloads::Benchmark;

fn server_with_read_timeout(read_timeout: Duration) -> ServerHandle {
    let explorer = Explorer::for_benchmark(Benchmark::StringSearch).trace_len(1_000).seed(7);
    let mut config = ServeConfig::new(explorer);
    config.workers = 2;
    config.limits.read_timeout = read_timeout;
    spawn(config).expect("bind")
}

/// Reads the socket to EOF (bounded by the client-side read timeout)
/// and returns everything the server sent.
fn drain(stream: &mut TcpStream) -> String {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => {
                panic!("read failed before EOF: {e} (got {:?})", String::from_utf8_lossy(&out))
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn slow_loris_partial_request_gets_408_then_the_door() {
    let server = server_with_read_timeout(Duration::from_millis(300));
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // Dribble a request line one byte per tick, slower than the read
    // deadline allows the whole request to take.
    for byte in b"POST /v1/evaluate HT" {
        if stream.write_all(&[*byte]).is_err() {
            break; // server already gave up on us — fine
        }
        std::thread::sleep(Duration::from_millis(40));
    }

    let response = drain(&mut stream);
    assert!(response.starts_with("HTTP/1.1 408"), "expected 408, got: {response:?}");
    assert!(response.contains("timed out"), "{response:?}");
    // The 408 is terminal: the server closed after it (drain hit EOF),
    // and a fresh connection still works.
    let health = archdse_serve::client::get(&server.addr().to_string(), "/healthz").unwrap();
    assert_eq!(health.status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn idle_connection_is_reaped_silently() {
    let server = server_with_read_timeout(Duration::from_millis(300));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Say nothing at all: no request bytes means no 408 — just EOF.
    let response = drain(&mut stream);
    assert!(response.is_empty(), "idle close must not send bytes, got: {response:?}");
    server.shutdown();
    server.join();
}

#[test]
fn dribbled_request_inside_the_deadline_is_served() {
    let server = server_with_read_timeout(Duration::from_secs(5));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // One byte per write, with real pauses: dozens of partial reads on
    // the server side, but well inside the deadline.
    for byte in b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n" {
        stream.write_all(&[*byte]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = drain(&mut stream);
    assert!(response.starts_with("HTTP/1.1 200"), "got: {response:?}");
    assert!(response.contains("\"status\""), "{response:?}");
    server.shutdown();
    server.join();
}

#[test]
fn timeout_and_reap_paths_are_observable_in_metrics() {
    let server = server_with_read_timeout(Duration::from_millis(300));
    let addr = server.addr().to_string();

    // An idle connection (no bytes) is reaped silently…
    {
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        let silence = drain(&mut idle);
        assert!(silence.is_empty(), "{silence:?}");
    }
    // …while a byte-at-a-time dribble that outlives the read deadline
    // gets an observable 408.
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    for byte in b"POST /v1/evaluate HT" {
        if loris.write_all(&[*byte]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let response = drain(&mut loris);
    assert!(response.starts_with("HTTP/1.1 408"), "{response:?}");

    // Both reap paths must show up in the exposition: the quiet close
    // as serve_conns_reaped_total, the noisy one as a counted 408.
    let expo = archdse_serve::client::get(&addr, "/metrics?format=prometheus").unwrap().body;
    let reaped = expo
        .lines()
        .find_map(|l| l.strip_prefix("serve_conns_reaped_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    assert!(reaped >= 1.0, "quiet reap not counted:\n{expo}");
    let timed_out = expo
        .lines()
        .any(|l| l.starts_with("serve_responses_total{") && l.contains("status=\"408\""));
    assert!(timed_out, "408 response not counted:\n{expo}");

    server.shutdown();
    server.join();
}

#[test]
fn keep_alive_serves_back_to_back_requests_then_reaps_idle() {
    let server = server_with_read_timeout(Duration::from_millis(500));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let request = b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: keep-alive\r\n\r\n";
    let read_one_response = |stream: &mut TcpStream| -> String {
        // Headers first, then exactly content-length body bytes.
        let mut raw = Vec::new();
        let mut buf = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut buf).unwrap();
            raw.push(buf[0]);
        }
        let head = String::from_utf8_lossy(&raw).into_owned();
        let length: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length header");
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        head
    };

    for _ in 0..3 {
        stream.write_all(request).unwrap();
        let head = read_one_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "got: {head:?}");
    }

    // After the last response the connection idles with no request
    // bytes outstanding, so the read deadline reaps it without a 408.
    let leftovers = drain(&mut stream);
    assert!(leftovers.is_empty(), "idle keep-alive close must be silent, got: {leftovers:?}");
    server.shutdown();
    server.join();
}
