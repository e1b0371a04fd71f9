//! Per-connection state machine driven by the reactor.
//!
//! Each accepted socket becomes one [`Conn`]: a nonblocking `TcpStream`, a
//! resumable [`RequestParser`], and an outgoing byte buffer. The reactor
//! feeds it readiness events; the connection never blocks and never owns a
//! thread. States:
//!
//! ```text
//!            ┌──────────── keep-alive / pipelined ───────────┐
//!            ▼                                               │
//!   Reading ──(request parsed)──▶ InFlight ──(completion)──▶ Writing ──▶ Closed
//!      │                            (parked: interest None,       (partial writes,
//!      │  (parse error/timeout)      waiting on coalescer          write deadline)
//!      └──────────────────────▶      or app pool)
//! ```
//!
//! Timers use a per-connection `generation`: every phase change bumps it, so
//! a deadline armed for an earlier phase is recognisably stale when its
//! wheel entry fires. The connection keeps its current deadline in a
//! [`Deadline`]; re-arming it later (the next request's read deadline, the
//! response's write deadline) adds no wheel entry.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use dse_reactor::Deadline;

use crate::http::{Parsed, RequestParser};

/// Read chunk size; also bounds how much one readable event consumes.
const READ_CHUNK: usize = 16 * 1024;

/// The named request phases, in pipeline order. Every timeline renders
/// all six (zeros included) so records have one fixed shape.
pub(crate) const PHASES: [&str; 6] = ["parse", "queue", "coalesce", "exec", "serialize", "write"];

/// FNV-1a over a trace id, feeding the tracer's deterministic request
/// sampler (string ids need a stable u64 before the splitmix hash).
pub(crate) fn trace_id_hash(id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Per-request phase timeline, filled in as the request crosses the
/// reactor, the queues and the coalescer:
///
/// * `parse` — first byte seen → complete request parsed (includes
///   inter-packet waits; loopback requests arrive in one packet).
/// * `queue` — dispatched → picked up (coalescer or app pool).
/// * `coalesce` — picked up → batch submitted (the gather delay).
/// * `exec` — ledger batch execution / handler / upstream round-trip.
/// * `serialize` — response rendering.
/// * `write` — completion posted → response fully flushed (includes
///   the reactor wake-up, so the phases tile the request wall time).
#[derive(Debug, Default, Clone)]
pub(crate) struct Timeline {
    /// The request's trace id: the client's `X-ArchDSE-Trace`, or a
    /// server-assigned one.
    pub trace: Option<String>,
    /// Whether this request is traced (deterministic id-hash sampling).
    pub sampled: bool,
    /// When the first byte of this request was seen.
    pub read_started: Option<Instant>,
    /// When the completion was posted (write-phase anchor).
    pub resp_ready: Option<Instant>,
    /// Phase durations, µs, in [`PHASES`] order minus `write`.
    pub parse_us: u64,
    /// Queue wait, µs.
    pub queue_us: u64,
    /// Coalescer gather delay, µs.
    pub coalesce_us: u64,
    /// Execution share, µs.
    pub exec_us: u64,
    /// Response rendering, µs.
    pub serialize_us: u64,
    /// Response flush, µs (filled when the write completes).
    pub write_us: u64,
}

impl Timeline {
    /// The phase durations in [`PHASES`] order.
    pub fn phase_values(&self) -> [u64; 6] {
        [
            self.parse_us,
            self.queue_us,
            self.coalesce_us,
            self.exec_us,
            self.serialize_us,
            self.write_us,
        ]
    }

    /// Renders the `Server-Timing` response header value for the
    /// phases known before the write begins (everything but `write`,
    /// plus `app;dur=` total server time so clients can compute the
    /// network/queue gap). Durations are milliseconds per the spec.
    pub fn server_timing_value(&self) -> String {
        let ms = |us: u64| us as f64 / 1000.0;
        let server_us =
            self.parse_us + self.queue_us + self.coalesce_us + self.exec_us + self.serialize_us;
        format!(
            "parse;dur={:.3}, queue;dur={:.3}, coalesce;dur={:.3}, exec;dur={:.3}, \
             serialize;dur={:.3}, app;dur={:.3}",
            ms(self.parse_us),
            ms(self.queue_us),
            ms(self.coalesce_us),
            ms(self.exec_us),
            ms(self.serialize_us),
            ms(server_us),
        )
    }
}

/// Connection phase, as seen by the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Accumulating request bytes (read deadline armed).
    Reading,
    /// A complete request was dispatched; waiting for its completion
    /// (interest `None`, no deadline — the pipeline always replies).
    InFlight,
    /// Flushing the response (write deadline armed).
    Writing,
    /// Finished; the reactor removes and drops the connection.
    Closed,
}

/// What a read pass produced, for the reactor to act on.
#[derive(Debug)]
pub(crate) enum ReadEvent {
    /// No complete request yet; stay in `Reading`.
    More,
    /// A complete request is ready (returned to the reactor for dispatch).
    Request(crate::http::Request),
    /// Protocol error: respond with this status/reason, then close.
    Bad(crate::http::BadRequest),
    /// Peer is gone / stream unusable with nothing to answer.
    Close,
}

pub(crate) struct Conn {
    pub stream: TcpStream,
    /// Phase-change counter guarding timers and completions.
    pub generation: u64,
    /// The read or write deadline of the current phase.
    pub deadline: Deadline,
    pub state: ConnState,
    parser: RequestParser,
    /// Pending response bytes and the write cursor into them.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether the connection survives the current response.
    pub keep_alive_after: bool,
    /// Any request bytes seen since the last response (408 vs quiet close
    /// when the read deadline fires).
    pub got_bytes: bool,
    /// Request start (first complete parse), for the latency histogram.
    pub started: Option<Instant>,
    /// Low-cardinality endpoint label of the in-flight request.
    pub endpoint: &'static str,
    /// Status of the response currently being written (flight record).
    pub status: u16,
    /// Phase timeline of the in-flight request.
    pub timeline: Timeline,
    /// The peer's read half hit EOF.
    read_closed: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, max_body_bytes: usize) -> Conn {
        Conn {
            stream,
            generation: 0,
            deadline: Deadline::default(),
            state: ConnState::Reading,
            parser: RequestParser::new(max_body_bytes),
            out: Vec::new(),
            out_pos: 0,
            keep_alive_after: false,
            got_bytes: false,
            started: None,
            endpoint: "other",
            status: 0,
            timeline: Timeline::default(),
            read_closed: false,
        }
    }

    /// Marks a phase change; stale timers/completions carry the old value.
    pub fn bump_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Drains the socket into the parser and steps the parser once.
    /// Call only in `Reading`.
    pub fn on_readable(&mut self) -> ReadEvent {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_closed = true;
                    self.parser.eof();
                    break;
                }
                Ok(n) => {
                    self.got_bytes = true;
                    if self.timeline.read_started.is_none() {
                        self.timeline.read_started = Some(Instant::now());
                    }
                    self.parser.feed(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadEvent::Close,
            }
        }
        self.step_parser()
    }

    /// Advances the parser without reading (used right after a response
    /// completes, when a pipelined request may already be buffered).
    pub fn step_parser(&mut self) -> ReadEvent {
        match self.parser.next_request() {
            Parsed::Incomplete => {
                if self.read_closed {
                    // EOF declared and the parser still wants more: it has
                    // already emitted its verdict (or will return Closed);
                    // an Incomplete here means the stream is spent.
                    ReadEvent::Close
                } else {
                    ReadEvent::More
                }
            }
            Parsed::Request(request) => ReadEvent::Request(request),
            Parsed::Closed => ReadEvent::Close,
            Parsed::Bad(bad) => ReadEvent::Bad(bad),
        }
    }

    /// Loads a rendered response for writing. Returns `false` when the
    /// socket already failed and the connection should just close.
    pub fn set_response(&mut self, bytes: Vec<u8>) {
        self.out = bytes;
        self.out_pos = 0;
        self.state = ConnState::Writing;
    }

    /// Writes as much of the pending response as the socket accepts.
    /// `Ok(true)` means fully flushed.
    pub fn try_flush(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Resets per-request state after a fully flushed keep-alive response.
    /// Returns `false` if the connection cannot take another request (peer
    /// half closed and nothing buffered).
    pub fn reset_for_next_request(&mut self) -> bool {
        self.out = Vec::new();
        self.out_pos = 0;
        self.started = None;
        self.endpoint = "other";
        self.status = 0;
        self.timeline = Timeline::default();
        self.keep_alive_after = false;
        self.got_bytes = self.parser.buffered() > 0;
        if self.got_bytes {
            // Pipelined bytes of the next request are already here.
            self.timeline.read_started = Some(Instant::now());
        }
        self.state = ConnState::Reading;
        !(self.read_closed && self.parser.buffered() == 0)
    }
}
