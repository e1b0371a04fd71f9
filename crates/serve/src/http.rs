//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for a
//! JSON service, with explicit size limits on every input.
//!
//! Since the reactor rewrite the server side is built on [`RequestParser`], a
//! *resumable* parser: the nonblocking connection state machines feed it
//! whatever bytes the socket had and it hands back complete requests (or
//! protocol errors) regardless of how the stream was split. Pipelined
//! requests queue up inside the parser; keep-alive is opt-in via an explicit
//! `Connection: keep-alive` request header (everything else gets
//! `Connection: close`, which is what the one-shot [`client`] helpers rely
//! on).
//!
//! The module also hosts the matching [`client`] helpers the load generator,
//! the CLI and the tests use to talk to a running server.

/// Longest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted on one request.
const MAX_HEADERS: usize = 64;
/// Most body bytes drained (not parsed) before answering 413, so the
/// rejection survives instead of being destroyed by a connection reset.
const MAX_DRAIN_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// The request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// The request target path (query strings are not interpreted).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// The peer sent `Connection: keep-alive` and may pipeline another
    /// request on this connection after the response.
    pub keep_alive: bool,
    /// The `X-ArchDSE-Trace` header value, when the client sent a
    /// well-formed one (1–64 chars of `[A-Za-z0-9_.-]`); malformed
    /// values are ignored rather than rejected.
    pub trace: Option<String>,
}

impl Request {
    /// The body decoded as UTF-8.
    pub fn body_utf8(&self) -> Result<&str, BadRequest> {
        std::str::from_utf8(&self.body).map_err(|_| BadRequest::new(400, "body is not UTF-8"))
    }

    /// The path without its query string, and the query string (empty
    /// when there is none).
    pub fn split_path(&self) -> (&str, &str) {
        self.path.split_once('?').unwrap_or((&self.path, ""))
    }
}

/// A request that could not be served, carrying the HTTP status to
/// answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BadRequest {
    /// HTTP status code for the rejection.
    pub status: u16,
    /// Human-readable reason, returned in the JSON error payload.
    pub reason: String,
}

impl BadRequest {
    pub fn new(status: u16, reason: impl Into<String>) -> Self {
        Self { status, reason: reason.into() }
    }

    /// The status and `{"error": reason}` body to answer with.
    pub fn reply(&self) -> (u16, String) {
        (self.status, crate::protocol::error_body(&self.reason))
    }
}

/// One step of resumable parsing; see [`RequestParser::next_request`].
#[derive(Debug)]
pub(crate) enum Parsed {
    /// Nothing complete yet — feed more bytes (or declare EOF).
    Incomplete,
    /// A complete request; pipelined follow-up bytes stay buffered.
    Request(Request),
    /// The peer finished cleanly: EOF on a request boundary, or EOF mid
    /// request line / mid body. There is nobody to answer, close quietly
    /// (mirrors the pre-reactor blocking reader, which treated a dropped
    /// request line as "closed" and a truncated body as unanswerable).
    Closed,
    /// Protocol error: answer with `0.status`, then close. Any bounded body
    /// drain (for 413) has already been consumed by the parser.
    Bad(BadRequest),
}

#[derive(Debug)]
enum State {
    /// Waiting for (more of) the request line.
    RequestLine,
    /// Request line done; collecting headers.
    Headers(Head),
    /// Headers done; collecting `remaining` body bytes.
    Body { head: Head, body: Vec<u8>, remaining: usize },
    /// Oversize body: swallow `remaining` bytes, then emit the 413.
    Draining { remaining: usize, bad: BadRequest },
    /// A `Bad` was emitted (or `Closed`); the connection is done.
    Finished,
}

#[derive(Debug, Default)]
struct Head {
    method: String,
    path: String,
    content_length: Option<usize>,
    keep_alive: bool,
    trace: Option<String>,
    headers_seen: usize,
}

/// The header requests and proxied upstream hops carry their trace id
/// in.
pub(crate) const TRACE_HEADER: &str = "X-ArchDSE-Trace";

/// Whether a client-supplied trace id is acceptable: 1–64 chars of
/// `[A-Za-z0-9_.-]`, so ids stay unambiguous in headers, JSON records
/// and log lines.
pub(crate) fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Incremental HTTP/1.1 request parser; the server side of this module.
///
/// Feed raw socket bytes with [`feed`](Self::feed) (and [`eof`](Self::eof)
/// when the peer closes), then pull outcomes with
/// [`next_request`](Self::next_request) until it reports
/// [`Parsed::Incomplete`]. Byte-split boundaries are invisible: any
/// partition of a stream parses identically to the one-shot whole
/// (property-tested below).
#[derive(Debug)]
pub(crate) struct RequestParser {
    max_body_bytes: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
    state: State,
    eof: bool,
}

impl RequestParser {
    /// Creates a parser enforcing `max_body_bytes` per request body.
    pub fn new(max_body_bytes: usize) -> Self {
        RequestParser {
            max_body_bytes,
            buf: Vec::new(),
            pos: 0,
            state: State::RequestLine,
            eof: false,
        }
    }

    /// Appends freshly read socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Declares end-of-stream: the peer will send nothing further.
    pub fn eof(&mut self) {
        self.eof = true;
    }

    /// Bytes buffered but not yet consumed (pipelined input).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn available(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Takes the next CRLF/LF-terminated line if one is complete, enforcing
    /// [`MAX_LINE_BYTES`]. `Err(())` means the line cap was exceeded.
    fn take_line(&mut self) -> Result<Option<String>, ()> {
        let window = self.available();
        let scan = window.len().min(MAX_LINE_BYTES + 1);
        match window[..scan].iter().position(|&b| b == b'\n') {
            Some(idx) => {
                let mut line = window[..idx].to_vec();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.pos += idx + 1;
                // Non-UTF-8 bytes in the head become U+FFFD, which can never
                // spell a framing-relevant header name (those are ASCII), so
                // the line falls through to the malformed/unknown arms.
                Ok(Some(String::from_utf8_lossy(&line).into_owned()))
            }
            None if window.len() > MAX_LINE_BYTES => Err(()),
            None => Ok(None),
        }
    }

    /// Advances the state machine as far as the buffered bytes allow.
    pub fn next_request(&mut self) -> Parsed {
        loop {
            match std::mem::replace(&mut self.state, State::Finished) {
                State::RequestLine => {
                    let line = match self.take_line() {
                        Ok(Some(line)) => line,
                        Ok(None) => {
                            if self.eof {
                                // Clean close between requests, or a peer
                                // that gave up mid-line: nothing to answer.
                                return Parsed::Closed;
                            }
                            self.state = State::RequestLine;
                            return Parsed::Incomplete;
                        }
                        Err(()) => {
                            return Parsed::Bad(BadRequest::new(431, "request line too long"));
                        }
                    };
                    if line.is_empty() {
                        // Tolerate stray blank lines between pipelined
                        // requests (RFC 9112 §2.2 allows a leading CRLF).
                        self.state = State::RequestLine;
                        continue;
                    }
                    let mut parts = line.split_whitespace();
                    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
                            (m.to_string(), p.to_string())
                        }
                        _ => return Parsed::Bad(BadRequest::new(400, "malformed request line")),
                    };
                    self.state = State::Headers(Head { method, path, ..Head::default() });
                }
                State::Headers(mut head) => {
                    let line = match self.take_line() {
                        Ok(Some(line)) => line,
                        Ok(None) => {
                            if self.eof {
                                return Parsed::Bad(BadRequest::new(400, "truncated headers"));
                            }
                            self.state = State::Headers(head);
                            return Parsed::Incomplete;
                        }
                        Err(()) => {
                            return Parsed::Bad(BadRequest::new(431, "header line too long"));
                        }
                    };
                    if line.is_empty() {
                        // End of head: frame the body.
                        let content_length = head.content_length.unwrap_or(0);
                        if content_length > self.max_body_bytes {
                            // Drain (a bounded amount of) the oversize body
                            // before answering: closing with unread bytes in
                            // the receive buffer would RST the connection
                            // and destroy the 413 response before the
                            // client can read it.
                            let max = self.max_body_bytes;
                            self.state = State::Draining {
                                remaining: content_length.min(MAX_DRAIN_BYTES),
                                bad: BadRequest::new(
                                    413,
                                    format!(
                                        "body of {content_length} bytes exceeds the {max} limit"
                                    ),
                                ),
                            };
                        } else {
                            self.state = State::Body {
                                head,
                                body: Vec::with_capacity(content_length.min(64 * 1024)),
                                remaining: content_length,
                            };
                        }
                        continue;
                    }
                    head.headers_seen += 1;
                    if head.headers_seen > MAX_HEADERS {
                        return Parsed::Bad(BadRequest::new(431, "too many headers"));
                    }
                    let Some((name, value)) = line.split_once(':') else {
                        return Parsed::Bad(BadRequest::new(
                            400,
                            format!("malformed header {line:?}"),
                        ));
                    };
                    let name = name.trim().to_ascii_lowercase();
                    if name == "content-length" {
                        // Digits only: `usize::from_str` would also accept a
                        // leading `+`, a classic request-smuggling
                        // discrepancy between front ends.
                        let value = value.trim();
                        let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
                        let Some(n) = digits.then(|| value.parse::<usize>().ok()).flatten() else {
                            return Parsed::Bad(BadRequest::new(400, "bad Content-Length"));
                        };
                        // Duplicates must agree; a conflicting pair means two
                        // parsers could frame the message differently.
                        if head.content_length.replace(n).is_some_and(|prev| prev != n) {
                            return Parsed::Bad(BadRequest::new(400, "conflicting Content-Length"));
                        }
                    } else if name == "transfer-encoding" {
                        return Parsed::Bad(BadRequest::new(
                            501,
                            "chunked bodies are not supported",
                        ));
                    } else if name == "connection" {
                        head.keep_alive =
                            value.split(',').any(|t| t.trim().eq_ignore_ascii_case("keep-alive"));
                    } else if name == "x-archdse-trace" {
                        let id = value.trim();
                        if valid_trace_id(id) {
                            head.trace = Some(id.to_string());
                        }
                    }
                    self.state = State::Headers(head);
                }
                State::Body { head, mut body, remaining } => {
                    let take = remaining.min(self.available().len());
                    body.extend_from_slice(&self.available()[..take]);
                    self.pos += take;
                    let remaining = remaining - take;
                    if remaining == 0 {
                        self.state = State::RequestLine;
                        return Parsed::Request(Request {
                            method: head.method,
                            path: head.path,
                            body,
                            keep_alive: head.keep_alive,
                            trace: head.trace,
                        });
                    }
                    if self.eof {
                        // Body cut off: unanswerable, like the old blocking
                        // reader's failed `read_exact`.
                        return Parsed::Closed;
                    }
                    self.state = State::Body { head, body, remaining };
                    return Parsed::Incomplete;
                }
                State::Draining { remaining, bad } => {
                    let take = remaining.min(self.available().len());
                    self.pos += take;
                    let remaining = remaining - take;
                    if remaining == 0 || self.eof {
                        return Parsed::Bad(bad);
                    }
                    self.state = State::Draining { remaining, bad };
                    return Parsed::Incomplete;
                }
                State::Finished => return Parsed::Incomplete,
            }
        }
    }
}

/// The reason phrase for the status codes this service emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// `Content-Type` of every JSON endpoint.
pub(crate) const CT_JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition.
pub(crate) const CT_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// Renders a complete response (head + body, plus any extra headers such
/// as `Server-Timing`, each rendered verbatim as `Name: value`) ready to
/// be written out by the reactor's nonblocking writer.
pub(crate) fn build_response(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason_phrase(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// A tiny blocking HTTP client for talking to an `archdse-serve` instance:
/// one-shot [`request`](client::request)/[`get`](client::get)/
/// [`post`](client::post) helpers plus a keep-alive
/// [`Conn`](client::Conn) for high-rate callers such as the load
/// generator.
pub mod client {
    use std::io::{self, BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// A response as the client sees it: status code and body text.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ClientResponse {
        /// The HTTP status code.
        pub status: u16,
        /// The response body (JSON for every service endpoint).
        pub body: String,
        /// The `Server-Timing` header, verbatim, when the server sent
        /// one (per-phase durations in milliseconds).
        pub server_timing: Option<String>,
    }

    /// Sends one request and reads the whole response.
    ///
    /// # Errors
    ///
    /// Fails on connection, send or receive errors, or when the server
    /// answers with something that is not an HTTP/1.1 response.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            payload.len()
        );
        // A server may answer (e.g. 413) and stop reading mid-send;
        // keep the write error only if no response can be read either.
        let sent = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(payload.as_bytes()))
            .and_then(|()| stream.flush());
        let mut raw = String::new();
        match (stream.read_to_string(&mut raw), sent) {
            (Ok(_), _) => {}
            (Err(_), Err(e)) | (Err(e), Ok(())) => return Err(e),
        }
        parse_response(&raw)
            .ok_or_else(|| std::io::Error::other(format!("malformed HTTP response: {raw:?}")))
    }

    /// `GET path` against a server address.
    ///
    /// # Errors
    ///
    /// Propagates [`request`] failures.
    pub fn get(addr: &str, path: &str) -> std::io::Result<ClientResponse> {
        request(addr, "GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates [`request`] failures.
    pub fn post(addr: &str, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        request(addr, "POST", path, Some(body))
    }

    fn parse_response(raw: &str) -> Option<ClientResponse> {
        let status: u16 = raw.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
        let (head, body) = raw.split_once("\r\n\r\n")?;
        let server_timing = head.lines().find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim().eq_ignore_ascii_case("server-timing").then(|| value.trim().to_string())
        });
        Some(ClientResponse { status, body: body.to_string(), server_timing })
    }

    /// A persistent keep-alive connection: many requests, one socket.
    ///
    /// Requests carry `Connection: keep-alive`; responses are framed by
    /// `Content-Length`. When the server answers `Connection: close` (or the
    /// socket dies) the connection reports itself dead via
    /// [`is_alive`](Conn::is_alive) and the caller reconnects.
    pub struct Conn {
        addr: String,
        reader: BufReader<TcpStream>,
        alive: bool,
    }

    impl Conn {
        /// Opens a keep-alive connection to `addr`.
        ///
        /// # Errors
        ///
        /// Fails when the TCP connection cannot be established.
        pub fn connect(addr: &str) -> io::Result<Conn> {
            Self::connect_with_timeout(addr, Duration::from_secs(60))
        }

        /// Opens a keep-alive connection with an explicit socket timeout.
        ///
        /// # Errors
        ///
        /// Fails when the TCP connection cannot be established.
        pub fn connect_with_timeout(addr: &str, timeout: Duration) -> io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            stream.set_nodelay(true)?;
            Ok(Conn { addr: addr.to_string(), reader: BufReader::new(stream), alive: true })
        }

        /// The address this connection talks to.
        pub fn addr(&self) -> &str {
            &self.addr
        }

        /// Whether the connection can carry another request.
        pub fn is_alive(&self) -> bool {
            self.alive
        }

        /// Sends one request and reads its `Content-Length`-framed response.
        ///
        /// # Errors
        ///
        /// Any socket or framing error; the connection is dead afterwards
        /// (reconnect and retry at the call site if appropriate).
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            body: Option<&str>,
        ) -> io::Result<ClientResponse> {
            self.request_with(method, path, body, &[])
        }

        /// [`request`](Conn::request) plus extra request headers, such as
        /// the trace context (`X-ArchDSE-Trace`) the load generator adds.
        ///
        /// # Errors
        ///
        /// Any socket or framing error; the connection is dead afterwards
        /// (reconnect and retry at the call site if appropriate).
        pub fn request_with(
            &mut self,
            method: &str,
            path: &str,
            body: Option<&str>,
            extra_headers: &[(&str, &str)],
        ) -> io::Result<ClientResponse> {
            if !self.alive {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "keep-alive connection is closed",
                ));
            }
            let payload = body.unwrap_or("");
            let mut head = format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
                self.addr,
                payload.len()
            );
            for (name, value) in extra_headers {
                head.push_str(name);
                head.push_str(": ");
                head.push_str(value);
                head.push_str("\r\n");
            }
            head.push_str("\r\n");
            let res = self.exchange(&head, payload);
            if res.is_err() {
                self.alive = false;
            }
            res
        }

        fn exchange(&mut self, head: &str, payload: &str) -> io::Result<ClientResponse> {
            let stream = self.reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(payload.as_bytes())?;
            stream.flush()?;

            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let status: u16 = line
                .strip_prefix("HTTP/1.1 ")
                .and_then(|r| r.get(..3))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::other(format!("malformed status line: {line:?}")))?;

            let mut content_length = 0usize;
            let mut server_closes = false;
            let mut server_timing = None;
            loop {
                line.clear();
                self.reader.read_line(&mut line)?;
                let trimmed = line.trim_end_matches(['\r', '\n']);
                if trimmed.is_empty() {
                    break;
                }
                if let Some((name, value)) = trimmed.split_once(':') {
                    let name = name.trim().to_ascii_lowercase();
                    if name == "content-length" {
                        content_length = value.trim().parse().map_err(|_| {
                            io::Error::other(format!("bad Content-Length: {value:?}"))
                        })?;
                    } else if name == "connection" && value.trim().eq_ignore_ascii_case("close") {
                        server_closes = true;
                    } else if name == "server-timing" {
                        server_timing = Some(value.trim().to_string());
                    }
                }
            }
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body)?;
            if server_closes {
                self.alive = false;
            }
            let body = String::from_utf8(body)
                .map_err(|_| io::Error::other("response body is not UTF-8"))?;
            Ok(ClientResponse { status, body, server_timing })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parses `stream` in one shot and returns every outcome in order,
    /// stopping at the first terminal one.
    fn parse_whole(stream: &[u8], max_body: usize) -> Vec<String> {
        let mut parser = RequestParser::new(max_body);
        parser.feed(stream);
        parser.eof();
        drain_outcomes(&mut parser)
    }

    /// Parses `stream` split at the given cut points (byte offsets).
    fn parse_split(stream: &[u8], cuts: &[usize], max_body: usize) -> Vec<String> {
        let mut parser = RequestParser::new(max_body);
        let mut out = Vec::new();
        let mut prev = 0usize;
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        bounds.push(stream.len());
        bounds.sort_unstable();
        for b in bounds {
            if b > prev {
                parser.feed(&stream[prev..b]);
                prev = b;
            }
            out.extend(drain_nonterminal(&mut parser));
            if out.last().is_some_and(|o| o.starts_with("bad") || o == "closed") {
                return out;
            }
        }
        parser.eof();
        out.extend(drain_outcomes(&mut parser));
        out
    }

    fn describe(p: Parsed) -> Option<String> {
        match p {
            Parsed::Incomplete => None,
            Parsed::Request(r) => Some(format!(
                "req {} {} ka={} body={:?}",
                r.method,
                r.path,
                r.keep_alive,
                String::from_utf8_lossy(&r.body)
            )),
            Parsed::Closed => Some("closed".to_string()),
            Parsed::Bad(b) => Some(format!("bad {} {}", b.status, b.reason)),
        }
    }

    fn drain_nonterminal(parser: &mut RequestParser) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match describe(parser.next_request()) {
                None => return out,
                Some(o) => {
                    let terminal = o == "closed" || o.starts_with("bad");
                    out.push(o);
                    if terminal {
                        return out;
                    }
                }
            }
        }
    }

    fn drain_outcomes(parser: &mut RequestParser) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match describe(parser.next_request()) {
                None => {
                    // EOF already declared: Incomplete here means Finished.
                    return out;
                }
                Some(o) => {
                    let terminal = o == "closed" || o.starts_with("bad");
                    out.push(o);
                    if terminal {
                        return out;
                    }
                }
            }
        }
    }

    fn render_request(method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut stream = render_request("POST", "/v1/evaluate", "{\"a\":1}", true);
        stream.extend(render_request("GET", "/healthz", "", true));
        stream.extend(render_request("GET", "/metrics", "", false));
        let got = parse_whole(&stream, 1024);
        assert_eq!(
            got,
            vec![
                "req POST /v1/evaluate ka=true body=\"{\\\"a\\\":1}\"",
                "req GET /healthz ka=true body=\"\"",
                "req GET /metrics ka=false body=\"\"",
                "closed",
            ]
        );
    }

    #[test]
    fn oversize_body_drains_then_413_even_byte_by_byte() {
        let body = "x".repeat(300);
        let stream = render_request("POST", "/v1/evaluate", &body, false);
        for step in [1usize, 7, 64] {
            let mut parser = RequestParser::new(100);
            let mut outcomes = Vec::new();
            for chunk in stream.chunks(step) {
                parser.feed(chunk);
                outcomes.extend(drain_nonterminal(&mut parser));
            }
            assert_eq!(
                outcomes,
                vec!["bad 413 body of 300 bytes exceeds the 100 limit"],
                "step {step}"
            );
        }
    }

    #[test]
    fn header_limits_fire_with_split_reads() {
        // 431: header line beyond 8 KiB, dripped in 1 KiB pieces.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET / HTTP/1.1\r\nX-Big: ");
        let filler = vec![b'a'; 1024];
        let mut outcome = None;
        for _ in 0..16 {
            parser.feed(&filler);
            if let Some(o) = describe(parser.next_request()) {
                outcome = Some(o);
                break;
            }
        }
        assert_eq!(outcome.as_deref(), Some("bad 431 header line too long"));

        // 431: 65th header, one header per feed.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET / HTTP/1.1\r\n");
        let mut outcome = None;
        for i in 0..65 {
            parser.feed(format!("X-H{i}: v\r\n").as_bytes());
            if let Some(o) = describe(parser.next_request()) {
                outcome = Some(o);
                break;
            }
        }
        assert_eq!(outcome.as_deref(), Some("bad 431 too many headers"));

        // 400: conflicting Content-Length split mid-header-name.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Le");
        assert!(describe(parser.next_request()).is_none());
        parser.feed(b"ngth: 4\r\n\r\nabc");
        assert_eq!(
            describe(parser.next_request()).as_deref(),
            Some("bad 400 conflicting Content-Length")
        );

        // 400: smuggling-shaped Content-Length values, split after the colon.
        for bad in ["+3", "-1", "1e2", " ", "0x10"] {
            let mut parser = RequestParser::new(1024);
            parser.feed(b"POST / HTTP/1.1\r\nContent-Length:");
            assert!(describe(parser.next_request()).is_none());
            parser.feed(format!(" {bad}\r\n\r\n").as_bytes());
            assert_eq!(
                describe(parser.next_request()).as_deref(),
                Some("bad 400 bad Content-Length"),
                "value {bad:?}"
            );
        }
    }

    #[test]
    fn trace_header_is_captured_when_well_formed() {
        let parse_one = |header: &str| -> Option<String> {
            let mut parser = RequestParser::new(1024);
            parser.feed(
                format!("GET /healthz HTTP/1.1\r\n{header}\r\nContent-Length: 0\r\n\r\n")
                    .as_bytes(),
            );
            match parser.next_request() {
                Parsed::Request(r) => r.trace,
                other => panic!("expected a request, got {other:?}"),
            }
        };
        assert_eq!(parse_one("X-ArchDSE-Trace: 00c0ffee.7"), Some("00c0ffee.7".to_string()));
        // Case-insensitive name, trimmed value.
        assert_eq!(parse_one("x-archdse-trace:  abc-DEF_1  "), Some("abc-DEF_1".to_string()));
        // Malformed ids are ignored, not rejected.
        assert_eq!(parse_one("X-ArchDSE-Trace: has space"), None);
        assert_eq!(parse_one("X-ArchDSE-Trace: "), None);
        assert_eq!(parse_one(&format!("X-ArchDSE-Trace: {}", "a".repeat(65))), None);
        assert_eq!(parse_one("X-Other: x"), None);
    }

    #[test]
    fn extra_response_headers_are_rendered_and_parsed_back() {
        let raw = build_response(
            200,
            CT_JSON,
            "{}",
            true,
            &[("Server-Timing", "parse;dur=0.01, exec;dur=1.50".to_string())],
        );
        let text = String::from_utf8(raw).unwrap();
        assert!(text.contains("\r\nServer-Timing: parse;dur=0.01, exec;dur=1.50\r\n"), "{text}");
        // With no extras it is byte-identical to the same response minus
        // the header.
        assert_eq!(build_response(200, CT_JSON, "{}", true, &[]), {
            let mut t = text.clone();
            t = t.replace("Server-Timing: parse;dur=0.01, exec;dur=1.50\r\n", "");
            t.into_bytes()
        });
    }

    #[test]
    fn eof_semantics_match_the_blocking_reader() {
        // Mid-request-line EOF: closed, nothing to answer.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /heal");
        parser.eof();
        assert_eq!(describe(parser.next_request()).as_deref(), Some("closed"));

        // Mid-headers EOF: 400 truncated headers.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET / HTTP/1.1\r\nHost: t\r\n");
        parser.eof();
        assert_eq!(describe(parser.next_request()).as_deref(), Some("bad 400 truncated headers"));

        // Mid-body EOF: closed (the old read_exact failure path).
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
        parser.eof();
        assert_eq!(describe(parser.next_request()).as_deref(), Some("closed"));
    }

    /// Strategy pieces for the equivalence property below.
    fn method_of(i: u64) -> &'static str {
        ["GET", "POST", "PUT", "DELETE"][(i % 4) as usize]
    }

    fn path_of(i: u64) -> String {
        ["/healthz", "/metrics", "/v1/evaluate", "/v1/jobs/3"][(i % 4) as usize].to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn any_byte_split_parses_like_one_shot(
            picks in proptest::collection::vec((0u64..4, 0u64..4, 0usize..40, proptest::bool::ANY), 1..5),
            cuts in proptest::collection::vec(0usize..4096, 0..12),
        ) {
            let mut stream = Vec::new();
            for (m, p, body_len, ka) in &picks {
                let body: String = "ab".repeat(*body_len)[..*body_len].to_string();
                stream.extend(render_request(method_of(*m), &path_of(*p), &body, *ka));
            }
            let whole = parse_whole(&stream, 4096);
            let split = parse_split(&stream, &cuts, 4096);
            prop_assert_eq!(whole, split);
        }

        #[test]
        fn any_split_of_a_limit_violation_fires_the_same_error(
            kind in 0u64..3,
            cuts in proptest::collection::vec(0usize..600, 0..8),
        ) {
            let stream: Vec<u8> = match kind {
                // Oversize body behind a valid head.
                0 => render_request("POST", "/v1/evaluate", &"y".repeat(200), false),
                // Conflicting Content-Length duplicates.
                1 => b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nab".to_vec(),
                // Chunked transfer encoding.
                _ => b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            };
            let whole = parse_whole(&stream, 100);
            let split = parse_split(&stream, &cuts, 100);
            prop_assert_eq!(&whole, &split);
            let last = whole.last().cloned().unwrap_or_default();
            let expected = ["bad 413", "bad 400", "bad 501"][kind as usize];
            prop_assert!(last.starts_with(expected), "{}", last);
        }
    }
}
