//! **shadowdp-obs** — the observability substrate for the ShadowDP
//! verification stack: tracing spans, a metrics registry, and Prometheus
//! text exposition. Zero dependencies, std only.
//!
//! The crate follows the same arming discipline as `shadowdp-fault`: the
//! whole span layer sits behind a single process-global [`AtomicBool`]
//! and a *disarmed* span costs exactly one relaxed atomic load — cheap
//! enough to leave the instrumentation compiled into every hot path
//! (solver query dispatch included) without showing up in the bench
//! gate. Metrics are always on; every individual update is one atomic
//! RMW on a pre-registered handle.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool
//!
//! # Spans
//!
//! [`span`]/[`span_labeled`] return a RAII guard; dropping it records a
//! `(name, label, start, duration, thread, parent)` tuple into a bounded
//! global ring buffer (oldest entries are overwritten — the buffer holds
//! the most recent window). Parent links come from a per-thread span
//! stack, timestamps from one process-wide monotonic anchor, so
//! [`chrome_trace_json`] can serialize the ring as Chrome `trace_event`
//! JSON loadable in `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! ```
//! shadowdp_obs::arm();
//! {
//!     let _outer = shadowdp_obs::span("verify");
//!     let _inner = shadowdp_obs::span_labeled("houdini.round", "round=0");
//! } // both recorded on drop, inner parented to outer
//! let spans = shadowdp_obs::take_spans();
//! assert_eq!(spans.len(), 2);
//! let json = shadowdp_obs::chrome_trace_json(&spans);
//! assert!(json.contains("\"traceEvents\""));
//! # shadowdp_obs::disarm();
//! ```
//!
//! # Metrics
//!
//! Call-sites declare `static` lazy handles ([`LazyCounter`],
//! [`LazyGauge`], [`LazyFloatGauge`], [`LazyHistogram`], and
//! [`LazyFamily`] for a counter or histogram family split by one label)
//! that register themselves in the process-global registry on first
//! touch; the registry has no other way in. [`render_prometheus`]
//! renders every registered metric in Prometheus text exposition format,
//! and that exposition is the registry's one read path: `METRICS` serves
//! it, [`validate_exposition`] checks it, and [`parse_exposition`] reads
//! it back — for `shadowdp top`, the end-to-end benchmark and the metric
//! tests alike. Histograms use fixed log2 buckets (upper bounds 1, 2, 4,
//! …, 2^26, +Inf — microseconds by convention), so they merge across
//! threads and processes by bucket-wise addition and yield cheap p50/p99
//! estimates.

pub mod expo;
pub mod metrics;
pub mod spans;

pub use expo::{parse_exposition, render_prometheus, validate_exposition, Sample};
pub use metrics::{
    Counter, Family, FloatGauge, Gauge, Histogram, LazyCounter, LazyFamily, LazyFloatGauge,
    LazyGauge, LazyHistogram, HIST_BUCKETS,
};
pub use spans::{
    arm, arm_from_env, armed, chrome_trace_json, disarm, span, span_labeled, spans_overwritten,
    take_spans, SpanGuard, SpanRecord,
};
