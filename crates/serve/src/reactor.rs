//! The server's readiness event loop.
//!
//! One reactor thread owns the listener, every connection state machine
//! ([`Conn`]), a [`TimerWheel`] of read/write deadlines, and a [`Poller`]
//! (epoll on Linux, `poll(2)` on other Unix). Connections therefore cost
//! one fd each, not one thread each; at rest the reactor blocks in the
//! kernel with zero CPU.
//!
//! Work leaves the reactor two ways and comes back through one:
//!
//! - `/v1/evaluate` is parsed on the reactor ([`Shared::inline`]) — it is
//!   cheap string work — and enqueued on the coalescer, which stays the
//!   batching heart of the service; the connection parks with interest
//!   `None`. `/v1/shutdown` only flips a flag and answers at once.
//! - Every other endpoint is handed to a small app-handler pool (CPU-bound
//!   JSON/ingestion/aggregation work must not stall the event loop).
//!
//! Unknown paths and wrong methods never leave the reactor: the endpoint
//! table ([`Endpoint::resolve`]) answers them with a 404 or 405.
//!
//! Both paths post a [`Completion`] to the shared [`CompletionQueue`] and
//! wake the poller; the reactor then renders/loads the response and drives
//! the nonblocking write. A `generation` counter per connection makes stale
//! timers and stale completions (from a connection that died or moved on)
//! recognisable. Each connection keeps its deadline in a
//! [`Deadline`](dse_reactor::Deadline) and holds about one timer-wheel
//! entry however many requests it serves; `serve_reactor_timer_entries`
//! reports the wheel's size.

use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dse_exec::{Fidelity, LedgerEntry};
use dse_obs::trace;
use dse_reactor::{Event, Fired, Interest, Poller, TimerWheel, WakeRx, Waker, WAKE_TOKEN};

use crate::batcher::EvalTiming;
use crate::conn::{trace_id_hash, Conn, ConnState, ReadEvent};
use crate::front::{json_reply, Endpoint, Limits, Reply};
use crate::http::{build_response, BadRequest, Request, CT_JSON};
use crate::protocol::error_body;
use crate::server::Shared;

/// Listener registration token (connection tokens start above it).
const LISTEN_TOKEN: u64 = 0;
/// Timer wheel granularity.
const TICK: Duration = Duration::from_millis(5);
/// Timer wheel size (deadlines beyond the horizon re-queue transparently).
const WHEEL_SLOTS: usize = 512;

/// Outcome of [`Reactor::dispatch`].
pub(crate) enum Dispatch {
    /// Respond now from the reactor thread.
    Immediate(Reply),
    /// Handed off (to the coalescer or the app pool); a [`Completion`]
    /// will arrive.
    Queued,
}

/// One finished piece of off-reactor work, addressed by connection token
/// and the generation it was issued under.
pub(crate) struct Completion {
    pub token: u64,
    pub generation: u64,
    pub timing: EvalTiming,
    /// When the completion was posted — anchors the write phase.
    pub posted_at: Instant,
    pub outcome: Outcome,
}

/// What a [`Completion`] brings back.
pub(crate) enum Outcome {
    /// An app-pool handler's response.
    Reply(Reply),
    /// The coalesced ledger entries of an evaluate, one per point of
    /// `codes`, for [`Shared::render_evaluate`].
    Evaluated { codes: Vec<u64>, fidelity: Fidelity, entries: Vec<LedgerEntry> },
}

/// MPSC rendezvous from workers back to the reactor, with a built-in wake.
pub(crate) struct CompletionQueue {
    items: Mutex<VecDeque<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    pub(crate) fn new(waker: Waker) -> Self {
        CompletionQueue { items: Mutex::new(VecDeque::new()), waker }
    }

    pub(crate) fn push(&self, completion: Completion) {
        self.items.lock().expect("completion queue poisoned").push_back(completion);
        self.waker.wake();
    }

    fn drain(&self) -> VecDeque<Completion> {
        std::mem::take(&mut *self.items.lock().expect("completion queue poisoned"))
    }
}

/// One queued app-pool request.
pub(crate) struct AppJob {
    pub token: u64,
    pub generation: u64,
    pub endpoint: Endpoint,
    pub request: Request,
    /// When the request was dispatched (timeline `queue` phase start).
    pub enqueued_at: Instant,
}

/// The app-pool worker body: handle requests until the queue closes.
pub(crate) fn app_worker_loop(
    shared: Arc<Shared>,
    rx: Arc<Mutex<Receiver<AppJob>>>,
    completions: Arc<CompletionQueue>,
) {
    loop {
        let job = {
            let rx = rx.lock().expect("app queue poisoned");
            rx.recv()
        };
        let Ok(job) = job else { return };
        let picked_at = Instant::now();
        shared.front.count(job.endpoint);
        let reply = shared.route(job.endpoint, &job.request);
        let timing = EvalTiming {
            queue_us: picked_at.saturating_duration_since(job.enqueued_at).as_micros() as u64,
            coalesce_us: 0,
            exec_us: picked_at.elapsed().as_micros() as u64,
        };
        completions.push(Completion {
            token: job.token,
            generation: job.generation,
            timing,
            posted_at: Instant::now(),
            outcome: Outcome::Reply(reply),
        });
    }
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    wheel: TimerWheel,
    conns: HashMap<u64, Conn>,
    completions: Arc<CompletionQueue>,
    app_tx: SyncSender<AppJob>,
    wake_rx: WakeRx,
    listener: Option<TcpListener>,
    next_token: u64,
    limits: Limits,
}

impl Reactor {
    /// The reactor thread body. Returns when shutdown has been requested
    /// and every accepted connection has fully drained.
    pub(crate) fn run(
        shared: Arc<Shared>,
        listener: TcpListener,
        wake_rx: WakeRx,
        completions: Arc<CompletionQueue>,
        app_tx: SyncSender<AppJob>,
    ) {
        let Ok(poller) = Poller::new() else { return };
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        if poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::Read).is_err() {
            return;
        }
        if poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read).is_err() {
            return;
        }
        let limits = shared.front.limits;
        let mut reactor = Reactor {
            shared,
            poller,
            wheel: TimerWheel::new(TICK, WHEEL_SLOTS),
            conns: HashMap::new(),
            completions,
            app_tx,
            wake_rx,
            listener: Some(listener),
            next_token: LISTEN_TOKEN + 1,
            limits,
        };
        reactor.event_loop();
    }

    fn event_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<Fired> = Vec::new();
        loop {
            let timeout = self
                .wheel
                .next_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            match self.poller.wait(&mut events, timeout) {
                Ok(_) => {}
                Err(_) => {
                    // A broken poller cannot make progress; back off briefly
                    // so a transient failure does not spin the CPU.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            self.shared.front.metrics.reactor_wakeups.inc();

            let batch = std::mem::take(&mut events);
            for event in &batch {
                match event.token {
                    WAKE_TOKEN => self.wake_rx.drain(),
                    LISTEN_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, event),
                }
            }
            events = batch;

            for completion in self.completions.drain() {
                self.apply_completion(completion);
            }

            self.wheel.expire(Instant::now(), &mut fired);
            for &fire in &fired {
                let Some(conn) = self.conns.get_mut(&fire.token) else { continue };
                if self.wheel.settle(&mut conn.deadline, fire, conn.generation) {
                    self.on_deadline(fire.token);
                }
            }
            self.shared.front.metrics.timer_entries.set(self.wheel.len() as f64);

            if self.shared.front.is_shutting_down() && self.shutdown_sweep() {
                return;
            }
        }
    }

    /// Progresses shutdown: stop accepting, shed idle connections, and
    /// report whether the drain is complete.
    fn shutdown_sweep(&mut self) -> bool {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            // Dropping closes the socket; pending SYNs get RST, which is
            // the contract: after /v1/shutdown answers, connects fail.
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Reading && !c.got_bytes)
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
        self.conns.is_empty()
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.front.is_shutting_down() {
                        continue; // drop it; we are draining
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream, self.limits.max_body_bytes);
                    if self.poller.register(conn.stream.as_raw_fd(), token, Interest::Read).is_err()
                    {
                        continue;
                    }
                    arm(&mut self.wheel, &mut conn, self.limits.read_timeout, token);
                    self.conns.insert(token, conn);
                    self.shared.front.metrics.connections_open.set(self.conns.len() as f64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Out of fds or a transient accept failure: count it and
                    // yield briefly — level-triggered readiness would
                    // otherwise spin the loop at full speed.
                    self.shared.front.metrics.accept_errors.inc();
                    std::thread::sleep(Duration::from_millis(2));
                    return;
                }
            }
        }
    }

    fn conn_event(&mut self, token: u64, event: &Event) {
        let Some(state) = self.conns.get(&token).map(|conn| conn.state) else { return };
        match state {
            ConnState::Reading if event.readable || event.hangup => self.pump(token, true),
            ConnState::Writing
                if (event.writable || event.hangup) && self.continue_write(token) =>
            {
                // Response done and the connection went back to
                // Reading: service any buffered pipelined requests.
                self.pump(token, false);
            }
            ConnState::InFlight if event.hangup => {
                // Peer is gone; the eventual completion will find no
                // connection and be dropped.
                self.close_conn(token);
            }
            _ => {}
        }
    }

    /// Reads (optionally) and processes as many buffered requests as
    /// possible — the pipelining loop.
    fn pump(&mut self, token: u64, mut do_read: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.state != ConnState::Reading {
                return;
            }
            let read_event = if do_read { conn.on_readable() } else { conn.step_parser() };
            do_read = false;
            match read_event {
                ReadEvent::More => return,
                ReadEvent::Close => {
                    self.close_conn(token);
                    return;
                }
                ReadEvent::Bad(bad) => {
                    self.refuse_unparsed(token, bad.status, &bad.reason);
                    return;
                }
                ReadEvent::Request(request) => {
                    if !self.begin_request(token, request) {
                        return;
                    }
                    // begin_request finished the whole response inline and
                    // the connection is ready for the next pipelined
                    // request: loop without reading.
                }
            }
        }
    }

    /// Dispatches one parsed request. Returns `true` when the response was
    /// written out entirely and the connection is back in `Reading` (so the
    /// caller may continue pumping pipelined input).
    fn begin_request(&mut self, token: u64, mut request: Request) -> bool {
        let shutting_down = self.shared.front.is_shutting_down();
        // Trace context: adopt the client's id, or — only when a trace
        // sink is installed — assign one. Off path this is one load.
        if request.trace.is_none() && trace::enabled() {
            request.trace = Some(self.shared.front.mint_trace_id());
        }
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let now = Instant::now();
        conn.started = Some(now);
        conn.timeline.sampled =
            request.trace.as_deref().is_some_and(|id| trace::request_sampled(trace_id_hash(id)));
        conn.timeline.trace = request.trace.clone();
        if let Some(read_started) = conn.timeline.read_started {
            conn.timeline.parse_us = now.saturating_duration_since(read_started).as_micros() as u64;
        }
        let (label, endpoint) = Endpoint::resolve(&request);
        conn.endpoint = label;
        conn.keep_alive_after = request.keep_alive && !shutting_down;
        conn.state = ConnState::InFlight;
        let generation = conn.bump_generation();
        let fd = conn.stream.as_raw_fd();
        let _ = self.poller.modify(fd, token, Interest::None);

        let dispatch = match endpoint {
            Ok(endpoint) => self.dispatch(endpoint, request, token, generation, now),
            Err(bad) => Dispatch::Immediate(json_reply(Err(bad))),
        };
        match dispatch {
            Dispatch::Immediate((status, body, content_type)) => {
                self.finish_and_respond(token, status, &body, content_type)
            }
            Dispatch::Queued => false,
        }
    }

    /// Serves a resolved request inline when it can, and otherwise
    /// queues it on the app pool. Only work that is cheap and nonblocking
    /// may run here. The `queue` phase starts at `now`, where `parse`
    /// ended, so the phases tile the request.
    fn dispatch(
        &self,
        endpoint: Endpoint,
        request: Request,
        token: u64,
        generation: u64,
        now: Instant,
    ) -> Dispatch {
        let front = &self.shared.front;
        if let Some(done) =
            self.shared.inline(endpoint, &request, token, generation, now, &self.completions)
        {
            front.count(endpoint);
            return done;
        }
        let job = AppJob { token, generation, endpoint, request, enqueued_at: now };
        let refused = match self.app_tx.try_send(job) {
            Ok(()) => return Dispatch::Queued,
            Err(TrySendError::Full(_)) => {
                front.metrics.rejected.inc();
                "request queue full, retry later"
            }
            Err(TrySendError::Disconnected(_)) => "server is shutting down",
        };
        Dispatch::Immediate(json_reply(Err(BadRequest::new(503, refused))))
    }

    /// Answers a request that never parsed (malformed, or cut off by the
    /// read deadline); the connection closes after the response.
    fn refuse_unparsed(&mut self, token: u64, status: u16, reason: &str) {
        let metrics = &self.shared.front.metrics;
        metrics.errors.inc();
        metrics.response("unparsed", status).inc();
        self.respond(token, status, &error_body(reason), CT_JSON, false);
    }

    /// Observes per-request metrics, then writes the response. Returns
    /// `true` when the connection is immediately ready for the next request.
    fn finish_and_respond(
        &mut self,
        token: u64,
        status: u16,
        body: &str,
        content_type: &'static str,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let endpoint = conn.endpoint;
        let elapsed = conn.started.map(|s| s.elapsed());
        let metrics = &self.shared.front.metrics;
        if let Some(elapsed) = elapsed {
            metrics.request_seconds(endpoint).observe_duration(elapsed);
        }
        metrics.response(endpoint, status).inc();
        if status >= 400 {
            metrics.errors.inc();
        }
        self.respond(token, status, body, content_type, true)
    }

    /// Loads and starts writing a response. `keep_alive_allowed` is false
    /// for protocol-error responses which always close. Returns `true` when
    /// the response flushed completely and the connection took the
    /// keep-alive path back to `Reading`.
    fn respond(
        &mut self,
        token: u64,
        status: u16,
        body: &str,
        content_type: &'static str,
        keep_alive_allowed: bool,
    ) -> bool {
        let shutting_down = self.shared.front.is_shutting_down();
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let keep = keep_alive_allowed && conn.keep_alive_after && !shutting_down;
        conn.keep_alive_after = keep;
        conn.status = status;
        // Immediate responses never went through a completion; anchor
        // the write phase here.
        if conn.timeline.resp_ready.is_none() {
            conn.timeline.resp_ready = Some(Instant::now());
        }
        // Requests with trace context get the phase breakdown echoed as
        // a `Server-Timing` header; everyone else keeps the old bytes.
        let timing = conn
            .timeline
            .trace
            .as_ref()
            .map(|_| ("Server-Timing", conn.timeline.server_timing_value()));
        let response = build_response(status, content_type, body, keep, timing.as_slice());
        conn.set_response(response);
        conn.bump_generation();
        arm(&mut self.wheel, conn, self.limits.write_timeout, token);
        self.continue_write(token)
    }

    /// Drives the nonblocking write; on completion either resets for
    /// keep-alive (returning `true`) or closes.
    fn continue_write(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        if conn.state != ConnState::Writing {
            return false;
        }
        match conn.try_flush() {
            Ok(true) => {
                conn.bump_generation(); // cancel the write deadline
                                        // The response is fully on the wire: close the write
                                        // phase and record the finished timeline.
                let now = Instant::now();
                if let Some(ready) = conn.timeline.resp_ready {
                    // The write window opens when the completion was
                    // posted; serialization happened inside it and is
                    // reported separately, so subtract it to keep the
                    // phases tiling (never exceeding) the wall time.
                    let since_ready = now.saturating_duration_since(ready).as_micros() as u64;
                    conn.timeline.write_us = since_ready.saturating_sub(conn.timeline.serialize_us);
                }
                let total_us = conn
                    .timeline
                    .read_started
                    .map(|s| now.saturating_duration_since(s).as_micros() as u64)
                    .unwrap_or(0);
                let timeline = conn.timeline.clone();
                let (endpoint, status) = (conn.endpoint, conn.status);
                self.shared.front.record_request(&timeline, endpoint, status, total_us);
                let Some(conn) = self.conns.get_mut(&token) else { return false };
                if conn.keep_alive_after && conn.reset_for_next_request() {
                    let fd = conn.stream.as_raw_fd();
                    let _ = self.poller.modify(fd, token, Interest::Read);
                    arm(&mut self.wheel, conn, self.limits.read_timeout, token);
                    // A pipelined request may already be buffered; the
                    // caller (pump) keeps going. When called from a
                    // completion path, pump explicitly.
                    true
                } else {
                    self.close_conn(token);
                    false
                }
            }
            Ok(false) => {
                let fd = conn.stream.as_raw_fd();
                let _ = self.poller.modify(fd, token, Interest::Write);
                false
            }
            Err(_) => {
                self.close_conn(token);
                false
            }
        }
    }

    fn apply_completion(&mut self, done: Completion) {
        let Some(conn) = self.conns.get_mut(&done.token) else { return };
        if conn.generation != done.generation || conn.state != ConnState::InFlight {
            return; // stale: the connection moved on (timeout/close path)
        }
        conn.timeline.queue_us = done.timing.queue_us;
        conn.timeline.coalesce_us = done.timing.coalesce_us;
        conn.timeline.exec_us = done.timing.exec_us;
        conn.timeline.resp_ready = Some(done.posted_at);
        let (status, body, content_type) = match done.outcome {
            Outcome::Reply(reply) => reply,
            Outcome::Evaluated { codes, fidelity, entries } => {
                let serialize_start = Instant::now();
                let reply = self.shared.render_evaluate(&codes, fidelity, entries);
                conn.timeline.serialize_us = serialize_start.elapsed().as_micros() as u64;
                reply
            }
        };
        if self.finish_and_respond(done.token, status, &body, content_type) {
            // The response flushed inline and the connection is reading
            // again — service any pipelined input that is already buffered.
            self.pump(done.token, false);
        }
    }

    /// Acts on a connection whose deadline for its current phase passed.
    fn on_deadline(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else { return };
        match conn.state {
            ConnState::Reading => {
                if conn.got_bytes {
                    // Slow-loris: a partial request dribbled past the read
                    // deadline gets a 408 and the door.
                    self.refuse_unparsed(token, 408, "request timed out");
                } else {
                    // Idle keep-alive / never-spoke connection: quiet close.
                    self.shared.front.metrics.conns_reaped.inc();
                    self.close_conn(token);
                }
            }
            ConnState::Writing => self.close_conn(token), // write deadline
            ConnState::InFlight | ConnState::Closed => {}
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            conn.state = ConnState::Closed;
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.front.metrics.connections_open.set(self.conns.len() as f64);
        }
    }
}

/// Arms `conn`'s deadline `after` from now for its current generation.
fn arm(wheel: &mut TimerWheel, conn: &mut Conn, after: Duration, token: u64) {
    wheel.arm(&mut conn.deadline, Instant::now(), after, token, conn.generation);
}
