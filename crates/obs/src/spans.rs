//! Tracing spans: an armed/disarmed RAII span API over a bounded global
//! ring buffer, exportable as Chrome `trace_event` JSON.
//!
//! Mirrors the `shadowdp-fault` arming pattern: one process-global
//! [`AtomicBool`], checked with a single relaxed load at every span
//! site, gates all cost. Disarmed (the default), [`span`] returns an
//! empty guard and touches nothing else — no clock read, no allocation,
//! no lock.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Ring capacity: the buffer keeps the most recent window of completed
/// spans. Phase-granularity instrumentation (a handful of spans per
/// verification job, one per Houdini round, a few per daemon job)
/// stays far below this for any realistic corpus run.
const RING_CAPACITY: usize = 65_536;

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);
static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small dense per-thread tag (assignment order), used as the Chrome
    /// `tid` — readable in Perfetto, unlike the opaque `ThreadId` debug
    /// form.
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
    /// Stack of open span ids on this thread; the top is the parent of
    /// the next span started here.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide monotonic time anchor; every span timestamp is
/// microseconds since this instant.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(1024)))
}

/// Arms span collection process-wide (and pins the time anchor so the
/// trace starts near t=0).
pub fn arm() {
    anchor();
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms span collection. Already-open guards still record on drop;
/// new [`span`] calls become one relaxed load again.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently armed. One relaxed atomic load — this is
/// the entire disarmed-path cost of every instrumentation site.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms spans if the `SHADOWDP_TRACE` environment variable is set to a
/// non-empty, non-`0` value. Read once per process (same discipline as
/// `SHADOWDP_FAULTS`); daemon binaries call this at startup so a live
/// service can be traced without a code change.
pub fn arm_from_env() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if let Ok(v) = std::env::var("SHADOWDP_TRACE") {
            if !v.is_empty() && v != "0" {
                arm();
            }
        }
    });
}

/// One completed span, as stored in the ring buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static site name, e.g. `"verify"` or `"daemon.job"`.
    pub name: &'static str,
    /// Optional dynamic label (algorithm name, round counters, …).
    pub label: Option<String>,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Dense per-thread tag (Chrome `tid`).
    pub tid: u64,
    /// Microseconds since the process anchor.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

struct ActiveSpan {
    name: &'static str,
    label: Option<String>,
    id: u64,
    parent: u64,
    tid: u64,
    start_us: u64,
    start: Instant,
}

/// RAII guard: records the span into the ring buffer on drop. The empty
/// (disarmed) form is a `None` and drops for free.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Replaces the span's label (no-op on a disarmed guard) — for sites
    /// whose interesting data is only known at span end, e.g. a Houdini
    /// round's query/hit counts.
    pub fn set_label(&mut self, label: &str) {
        if let Some(active) = &mut self.0 {
            active.label = Some(label.to_string());
        }
    }

    fn begin(name: &'static str, label: Option<String>) -> SpanGuard {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        });
        let tid = THREAD_TAG.with(|t| *t);
        let start = Instant::now();
        let start_us = start.duration_since(anchor()).as_micros() as u64;
        SpanGuard(Some(ActiveSpan {
            name,
            label,
            id,
            parent,
            tid,
            start_us,
            start,
        }))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let dur_us = active.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| {
            // Guards are scoped, so the top of the stack is this span;
            // defend against out-of-order drops anyway.
            let mut stack = s.borrow_mut();
            if let Some(at) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(at);
            }
        });
        let record = SpanRecord {
            name: active.name,
            label: active.label,
            id: active.id,
            parent: active.parent,
            tid: active.tid,
            start_us: active.start_us,
            dur_us,
        };
        let mut ring = ring()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
            OVERWRITTEN.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }
}

/// Opens a span. Disarmed: one relaxed atomic load, nothing else.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !armed() {
        return SpanGuard(None);
    }
    SpanGuard::begin(name, None)
}

/// Opens a labelled span (the label is only materialized when armed —
/// pass `&str`, not a pre-built `String`, from hot paths).
#[inline]
pub fn span_labeled(name: &'static str, label: &str) -> SpanGuard {
    if !armed() {
        return SpanGuard(None);
    }
    SpanGuard::begin(name, Some(label.to_string()))
}

/// Drains the ring buffer, returning every recorded span ordered by
/// start time.
pub fn take_spans() -> Vec<SpanRecord> {
    let mut ring = ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut spans: Vec<SpanRecord> = ring.drain(..).collect();
    spans.sort_by_key(|s| (s.start_us, s.id));
    spans
}

/// How many spans the bounded ring has overwritten since process start
/// (0 = the trace window is complete).
pub fn spans_overwritten() -> u64 {
    OVERWRITTEN.load(Ordering::Relaxed)
}

/// Minimal JSON string escaping (quotes, backslash, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes spans as Chrome `trace_event` JSON (complete `"ph":"X"`
/// events inside a `traceEvents` envelope) — loadable in
/// `about:tracing` and Perfetto. `ts`/`dur` are microseconds, as the
/// format requires.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let pid = std::process::id();
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = match &s.label {
            Some(label) => format!("{} [{}]", s.name, label),
            None => s.name.to_string(),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"shadowdp\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"span_id\":{},\"parent_id\":{}}}}}",
            json_escape(&name),
            s.start_us,
            s.dur_us,
            pid,
            s.tid,
            s.id,
            s.parent
        ));
        if i + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global arm flag and ring; serialize
    // them (metrics tests are unaffected — the registry is append-only).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        let _l = lock();
        disarm();
        let _ = take_spans();
        {
            let _g = span("nothing");
            let _h = span_labeled("nothing", "either");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_parent_link() {
        let _l = lock();
        arm();
        let _ = take_spans();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_labeled("inner", "x=1");
            }
        }
        disarm();
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.label.as_deref(), Some("x=1"));
        assert!(outer.dur_us >= inner.dur_us);
        assert!(outer.start_us <= inner.start_us);
        // Same thread.
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn chrome_json_is_wellformed_and_escaped() {
        let spans = vec![
            SpanRecord {
                name: "verify",
                label: Some("Smart \"Sum\"\n".into()),
                id: 7,
                parent: 2,
                tid: 1,
                start_us: 10,
                dur_us: 47_000,
            },
            SpanRecord {
                name: "parse",
                label: None,
                id: 8,
                parent: 0,
                tid: 2,
                start_us: 0,
                dur_us: 3,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("verify [Smart \\\"Sum\\\"\\n]"));
        assert!(json.contains("\"ts\":10,\"dur\":47000"));
        // Exactly one comma between the two events.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn ring_is_bounded() {
        let _l = lock();
        arm();
        let _ = take_spans();
        let before = spans_overwritten();
        for _ in 0..RING_CAPACITY + 10 {
            let _g = span("spin");
        }
        disarm();
        let spans = take_spans();
        assert_eq!(spans.len(), RING_CAPACITY);
        assert!(spans_overwritten() >= before + 10);
    }
}
