//! Regression tests for the hand-rolled HTTP/1.1 framing, driven over
//! raw sockets so malformed and truncated requests — which the [`client`]
//! helpers cannot produce — reach the parser byte-for-byte as written.
//!
//! Each test pins down one front-door bug:
//! * a connection dropped mid-request-line used to be answered
//!   431 "request line too long" instead of being treated as closed;
//! * the header cap used to charge the blank terminator line against the
//!   header budget, rejecting a legal request with exactly 64 headers;
//! * `Content-Length` used to be last-wins on duplicates and accept a
//!   leading `+` (request-smuggling hygiene).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use archdse::Explorer;
use archdse_serve::{spawn, ServeConfig, ServerHandle};
use dse_workloads::Benchmark;

fn quick_server() -> ServerHandle {
    let explorer =
        Explorer::for_benchmark(Benchmark::StringSearch).trace_len(2_000).seed(7).threads(2);
    let mut config = ServeConfig::new(explorer);
    config.workers = 2;
    config.limits.max_body_bytes = 16 * 1024;
    spawn(config).expect("bind")
}

/// Sends `head` (and optionally half-closes the write side), then reads
/// whatever the server answers until EOF.
fn raw_exchange(addr: &str, bytes: &str, half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(bytes.as_bytes()).expect("send");
    stream.flush().expect("flush");
    if half_close {
        // FIN without closing the read side: the server sees EOF but
        // can still answer if it (wrongly) wants to.
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn status_of(response: &str) -> Option<u16> {
    response.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

#[test]
fn connection_dropped_mid_request_line_gets_no_response() {
    let server = quick_server();
    let addr = server.addr().to_string();

    // A peer that gives up halfway through the request line never sent
    // a request; answering anything (the old 431) is wrong.
    let response = raw_exchange(&addr, "GET /healthz HT", true);
    assert_eq!(response, "", "truncated request line must be treated as closed, not answered");

    // An actually-oversize request line still draws the 431.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9 * 1024));
    let response = raw_exchange(&addr, &long, false);
    assert_eq!(status_of(&response), Some(431), "{response}");

    server.shutdown();
    server.join();
}

#[test]
fn connection_dropped_mid_headers_is_a_bad_request() {
    let server = quick_server();
    let addr = server.addr().to_string();

    // The request line made it through, so there is a request to
    // reject — but as truncated (400), not as oversize (431).
    let response = raw_exchange(&addr, "GET /healthz HTTP/1.1\r\nHost: trun", true);
    assert_eq!(status_of(&response), Some(400), "{response}");
    assert!(response.contains("truncated"), "{response}");

    let response = raw_exchange(&addr, "GET /healthz HTTP/1.1\r\nHost: a\r\n", true);
    assert_eq!(status_of(&response), Some(400), "{response}");

    server.shutdown();
    server.join();
}

#[test]
fn exactly_the_header_cap_is_accepted_and_one_more_is_not() {
    let server = quick_server();
    let addr = server.addr().to_string();

    let with_headers = |n: usize| {
        let mut request = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..n {
            request.push_str(&format!("X-Pad-{i}: {i}\r\n"));
        }
        request.push_str("\r\n");
        request
    };

    // MAX_HEADERS is 64; the blank terminator must not count against it.
    let response = raw_exchange(&addr, &with_headers(64), false);
    assert_eq!(status_of(&response), Some(200), "64 headers are legal: {response}");

    let response = raw_exchange(&addr, &with_headers(65), false);
    assert_eq!(status_of(&response), Some(431), "{response}");

    server.shutdown();
    server.join();
}

#[test]
fn content_length_rejects_smuggling_shapes() {
    let server = quick_server();
    let addr = server.addr().to_string();

    let post = |headers: &str, body: &str| {
        let request = format!("POST /v1/explain HTTP/1.1\r\n{headers}\r\n{body}");
        raw_exchange(&addr, &request, false)
    };
    let body = r#"{"point": 0, "k": 2}"#;

    // A leading `+` parses under usize::from_str but is not a valid
    // HTTP Content-Length; another parser in the chain may read 0.
    let response = post(&format!("Content-Length: +{}\r\n", body.len()), body);
    assert_eq!(status_of(&response), Some(400), "{response}");
    assert!(response.contains("bad Content-Length"), "{response}");

    for bad in ["-1", "1e2", " ", "0x10"] {
        let response = post(&format!("Content-Length: {bad}\r\n"), body);
        assert_eq!(status_of(&response), Some(400), "Content-Length {bad:?}: {response}");
    }

    // Mismatched duplicates could frame two different bodies.
    let response = post(&format!("Content-Length: {}\r\nContent-Length: 2\r\n", body.len()), body);
    assert_eq!(status_of(&response), Some(400), "{response}");
    assert!(response.contains("conflicting Content-Length"), "{response}");

    // Duplicates that agree are ugly but unambiguous — RFC 9110 lets a
    // recipient accept them.
    let cl = format!("Content-Length: {0}\r\nContent-Length: {0}\r\n", body.len());
    let response = post(&cl, body);
    assert_eq!(status_of(&response), Some(200), "{response}");

    // And the plain form still works.
    let response = post(&format!("Content-Length: {}\r\n", body.len()), body);
    assert_eq!(status_of(&response), Some(200), "{response}");

    server.shutdown();
    server.join();
}
