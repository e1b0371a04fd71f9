//! A JSONL span/event tracer.
//!
//! One trace per process, installed with [`install_file`] (the CLI's
//! `--trace-out`). When no trace is installed — the default — every
//! call site reduces to a single relaxed atomic load, so instrumented
//! code pays nothing in the common case and callers can gate
//! expensive field construction behind [`enabled`].
//!
//! Each line is one flat JSON object:
//!
//! * `{"type":"span_begin","id":N,"parent":P,"name":"...","ts_us":T}`
//! * `{"type":"span_end","id":N,"name":"...","ts_us":T,"dur_us":D}`
//! * `{"type":"event","name":"...","span":S,"ts_us":T, ...fields}`
//!
//! Timestamps are microseconds from a monotonic epoch taken at
//! install time; span ids count from 1 per installed trace. Both
//! reset on [`install_file`], so two same-seed runs produce traces
//! that are byte-identical after stripping the `ts_us`/`dur_us` keys
//! — the property `tests/trace_determinism.rs` pins down.
//!
//! Span parentage is tracked per thread (a thread-local stack), and
//! the instrumented layers only emit from the driver thread; worker
//! threads report through the metrics registry instead, whose atomic
//! counters are order-free. That split is what keeps traces
//! deterministic under `par_map` parallelism.
//!
//! ## Request records
//!
//! Request-level records (`{"type":"request", ...}`, see [`request`])
//! capture one completed HTTP request with its phase breakdown.
//! Whether a given request id is traced is decided by
//! [`request_sampled`] — a deterministic hash of the id against the
//! configured sampling divisor, so two same-seed runs sample exactly
//! the same requests and the off path stays one relaxed atomic load.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::expo;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: Mutex<Option<Tracer>> = Mutex::new(None);
/// Request-sampling divisor: a request id is traced when
/// `splitmix64(id) % divisor == 0`. 1 = every request, 0 = none.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BATCH_LINKS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct Tracer {
    out: Box<dyn Write + Send>,
    epoch: Instant,
    next_span: u64,
}

impl Tracer {
    fn ts_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn write_line(&mut self, line: &str) {
        // Trace IO failures must never take down a run; drop the line.
        let _ = writeln!(self.out, "{line}");
    }
}

/// The finalizer of the splitmix64 generator: a cheap, well-mixed
/// 64-bit hash. Used for deterministic request sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sets the request-sampling divisor: a request id is traced when
/// `hash(id) % every == 0`. `1` (the default) traces every request,
/// `0` traces none. Deterministic in the id, so same-seed runs sample
/// identically.
pub fn set_request_sampling(every: u64) {
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Whether the request with numeric id `id` should be traced. When no
/// trace sink is installed this is a single relaxed atomic load.
#[inline]
pub fn request_sampled(id: u64) -> bool {
    if !enabled() {
        return false;
    }
    match SAMPLE_EVERY.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        every => splitmix64(id).is_multiple_of(every),
    }
}

/// Whether a trace sink is installed. One relaxed load — the entire
/// cost of instrumentation when tracing is off. Check this before
/// building expensive event fields.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a JSONL trace writing to `path` (created/truncated),
/// replacing any previous sink and resetting span ids and the
/// timestamp epoch.
///
/// # Errors
///
/// Returns the file-creation error, leaving tracing disabled.
pub fn install_file(path: impl AsRef<Path>) -> io::Result<()> {
    let file = File::create(path)?;
    install_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Installs an arbitrary sink (used by tests to trace into memory).
pub fn install_writer(out: Box<dyn Write + Send>) {
    let mut tracer = TRACER.lock().expect("tracer poisoned");
    *tracer = Some(Tracer { out, epoch: Instant::now(), next_span: 1 });
    SPAN_STACK.with(|s| s.borrow_mut().clear());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Flushes and removes the current sink, disabling tracing.
///
/// # Errors
///
/// Returns the final flush error, if any (the sink is removed either
/// way).
pub fn shutdown() -> io::Result<()> {
    ENABLED.store(false, Ordering::Relaxed);
    let mut tracer = TRACER.lock().expect("tracer poisoned");
    match tracer.take() {
        Some(mut t) => t.out.flush(),
        None => Ok(()),
    }
}

/// A field value in a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered shortest-round-trip; non-finite becomes `null`).
    F64(f64),
    /// String (JSON-escaped).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A list of strings (rendered as a JSON array). Used for span
    /// links: the trace ids a coalesced batch served.
    StrList(Vec<String>),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<Vec<String>> for FieldValue {
    fn from(v: Vec<String>) -> Self {
        FieldValue::StrList(v)
    }
}

fn write_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => out.push_str(&expo::format_json_f64(*x)),
        FieldValue::Str(s) => expo::write_json_string(out, s),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::StrList(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                expo::write_json_string(out, item);
            }
            out.push(']');
        }
    }
}

/// Parks the trace ids a coalesced batch is about to serve, so the
/// `ledger_batch` event emitted inside `CostLedger::evaluate_batch`
/// can carry them as span links. Thread-local: the coalescer sets the
/// links just before submitting the batch on the same thread.
pub fn set_batch_links(links: Vec<String>) {
    BATCH_LINKS.with(|l| *l.borrow_mut() = links);
}

/// Takes (and clears) the parked batch links for this thread.
pub fn take_batch_links() -> Vec<String> {
    BATCH_LINKS.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// A named field: `("cpi", 1.37.into())`.
pub type Field<'a> = (&'a str, FieldValue);

/// Emits one `event` line carrying `fields`, attributed to the
/// innermost open span on this thread. No-op when tracing is off.
///
/// Field names must be JSON-key-safe and must not collide with the
/// built-in keys (`type`, `name`, `span`, `ts_us`).
pub fn event(name: &str, fields: &[Field<'_>]) {
    if !enabled() {
        return;
    }
    let mut tracer = TRACER.lock().expect("tracer poisoned");
    let Some(t) = tracer.as_mut() else { return };
    let mut line = String::from("{\"type\":\"event\",\"name\":");
    expo::write_json_string(&mut line, name);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    match parent {
        Some(id) => {
            let _ = write!(line, ",\"span\":{id}");
        }
        None => line.push_str(",\"span\":null"),
    }
    let _ = write!(line, ",\"ts_us\":{}", t.ts_us());
    for (key, value) in fields {
        line.push(',');
        expo::write_json_string(&mut line, key);
        line.push(':');
        write_field_value(&mut line, value);
    }
    line.push('}');
    t.write_line(&line);
}

/// One completed HTTP request, for [`request`].
#[derive(Debug, Clone)]
pub struct RequestRecord<'a> {
    /// The request's trace id (hex, client-supplied or server-assigned).
    pub trace: &'a str,
    /// Which role observed it (the server writes `"server"`).
    pub role: &'a str,
    /// The endpoint label the server accounted the request under.
    pub endpoint: &'a str,
    /// The HTTP status the request was answered with.
    pub status: u16,
    /// End-to-end wall time, request parsed → response written, in µs.
    pub dur_us: u64,
    /// Named phase durations in µs (`("parse", 12)`, …). Rendered as
    /// `"<name>_us":N` keys so determinism tooling can strip every
    /// wall-clock field by the `_us` suffix alone.
    pub phases: &'a [(&'static str, u64)],
}

/// Emits one `{"type":"request",...}` line: a completed request with
/// its phase timeline. No-op when tracing is off. Callers decide
/// sampling via [`request_sampled`] before building the record.
pub fn request(rec: &RequestRecord<'_>) {
    if !enabled() {
        return;
    }
    let mut tracer = TRACER.lock().expect("tracer poisoned");
    let Some(t) = tracer.as_mut() else { return };
    let mut line = String::from("{\"type\":\"request\",\"trace\":");
    expo::write_json_string(&mut line, rec.trace);
    line.push_str(",\"role\":");
    expo::write_json_string(&mut line, rec.role);
    line.push_str(",\"endpoint\":");
    expo::write_json_string(&mut line, rec.endpoint);
    let _ = write!(line, ",\"status\":{}", rec.status);
    let _ = write!(line, ",\"ts_us\":{},\"dur_us\":{}", t.ts_us(), rec.dur_us);
    for (name, us) in rec.phases {
        let _ = write!(line, ",\"{name}_us\":{us}");
    }
    line.push('}');
    t.write_line(&line);
}

/// Opens a span; the returned guard closes it on drop. When tracing is
/// off this returns an inert guard at the cost of one atomic load.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: None, name, begin_us: 0 };
    }
    let mut tracer = TRACER.lock().expect("tracer poisoned");
    let Some(t) = tracer.as_mut() else {
        return SpanGuard { id: None, name, begin_us: 0 };
    };
    let id = t.next_span;
    t.next_span += 1;
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let begin_us = t.ts_us();
    let mut line = String::from("{\"type\":\"span_begin\",\"id\":");
    let _ = write!(line, "{id}");
    match parent {
        Some(p) => {
            let _ = write!(line, ",\"parent\":{p}");
        }
        None => line.push_str(",\"parent\":null"),
    }
    line.push_str(",\"name\":");
    expo::write_json_string(&mut line, name);
    let _ = write!(line, ",\"ts_us\":{begin_us}");
    line.push('}');
    t.write_line(&line);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard { id: Some(id), name, begin_us }
}

/// RAII guard for an open span; emits `span_end` on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    id: Option<u64>,
    name: &'static str,
    begin_us: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own id even if inner guards leaked (keeps the
            // stack balanced for subsequent spans).
            while let Some(top) = stack.pop() {
                if top == id {
                    break;
                }
            }
        });
        let mut tracer = TRACER.lock().expect("tracer poisoned");
        let Some(t) = tracer.as_mut() else { return };
        let now = t.ts_us();
        let mut line = String::from("{\"type\":\"span_end\",\"id\":");
        let _ = write!(line, "{id}");
        line.push_str(",\"name\":");
        expo::write_json_string(&mut line, self.name);
        let _ = write!(line, ",\"ts_us\":{now},\"dur_us\":{}", now.saturating_sub(self.begin_us));
        line.push('}');
        t.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write sink sharing its buffer with the test.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The tracer is process-global, so every scenario runs inside one
    /// test to avoid cross-test interference under the parallel runner.
    #[test]
    fn tracer_end_to_end() {
        // Disabled by default: events vanish, spans are inert.
        assert!(!enabled());
        event("ignored", &[("x", 1u64.into())]);

        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        assert!(enabled());
        {
            let _outer = span("outer");
            event("hello", &[("n", 3u64.into()), ("label", "a\"b".into())]);
            {
                let _inner = span("inner");
                event("nested", &[("ok", true.into()), ("cpi", 0.5.into())]);
            }
        }
        shutdown().unwrap();
        assert!(!enabled());
        event("also_ignored", &[]);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "begin, event, begin, event, end, end:\n{text}");
        assert!(lines[0].contains("\"type\":\"span_begin\""));
        assert!(lines[0].contains("\"id\":1"));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"hello\""));
        assert!(lines[1].contains("\"span\":1"));
        assert!(lines[1].contains("\"label\":\"a\\\"b\""));
        assert!(lines[2].contains("\"id\":2"));
        assert!(lines[2].contains("\"parent\":1"));
        assert!(lines[3].contains("\"span\":2"));
        assert!(lines[3].contains("\"ok\":true"));
        assert!(lines[3].contains("\"cpi\":0.5"));
        assert!(lines[4].contains("\"type\":\"span_end\""));
        assert!(lines[4].contains("\"id\":2"));
        assert!(lines[5].contains("\"id\":1"));

        // Reinstalling resets span ids: determinism across runs.
        let buf2 = SharedBuf::default();
        install_writer(Box::new(buf2.clone()));
        drop(span("again"));
        shutdown().unwrap();
        let text2 = String::from_utf8(buf2.0.lock().unwrap().clone()).unwrap();
        assert!(text2.starts_with("{\"type\":\"span_begin\",\"id\":1,"), "{text2}");

        // Request records carry trace id and phases as `_us` keys; event
        // fields render in order, links as a JSON array.
        let buf3 = SharedBuf::default();
        install_writer(Box::new(buf3.clone()));
        request(&RequestRecord {
            trace: "00000000deadbeef",
            role: "server",
            endpoint: "/v1/evaluate",
            status: 200,
            dur_us: 1234,
            phases: &[("parse", 5), ("queue", 40)],
        });
        event("linked", &[("links", vec!["a1".to_string(), "b2".to_string()].into())]);
        shutdown().unwrap();
        let text3 = String::from_utf8(buf3.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text3.lines().collect();
        assert_eq!(lines.len(), 2, "{text3}");
        assert!(lines[0].starts_with("{\"type\":\"request\",\"trace\":\"00000000deadbeef\""));
        assert!(lines[0].contains("\"endpoint\":\"/v1/evaluate\",\"status\":200"));
        assert!(lines[0].ends_with("\"parse_us\":5,\"queue_us\":40}"), "{}", lines[0]);
        assert!(lines[1].ends_with("\"links\":[\"a1\",\"b2\"]}"), "{}", lines[1]);

        // Sampling is a pure function of the id: divisor 1 keeps all,
        // 0 drops all, and any other divisor is deterministic.
        install_writer(Box::new(SharedBuf::default()));
        assert!(request_sampled(7));
        set_request_sampling(0);
        assert!(!request_sampled(7));
        set_request_sampling(4);
        let picked: Vec<u64> = (0..64).filter(|&id| request_sampled(id)).collect();
        let again: Vec<u64> = (0..64).filter(|&id| request_sampled(id)).collect();
        assert_eq!(picked, again);
        assert!(!picked.is_empty() && picked.len() < 64, "{picked:?}");
        set_request_sampling(1);
        shutdown().unwrap();
        // Off path: no sink installed → nothing sampled.
        assert!(!request_sampled(7));

        // Batch links park-and-take round-trips per thread.
        set_batch_links(vec!["x".into()]);
        assert_eq!(take_batch_links(), vec!["x".to_string()]);
        assert!(take_batch_links().is_empty());
    }
}
