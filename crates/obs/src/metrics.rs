//! The metrics registry: counters, gauges, fixed-bucket log2 histograms,
//! and families of counters or histograms split by one label, behind
//! process-global lazily-registered handles.
//!
//! Metric updates are always on (no arming): each is one atomic RMW on a
//! `&'static` handle that call-sites cache in a `Lazy*` static, so the
//! registry lock is only taken on the *first* touch of each site and
//! when rendering. Histograms are arrays of atomics, so they merge
//! across threads for free and render deterministically. The registry
//! is read in one way only: the exposition
//! [`render_prometheus`](crate::render_prometheus) renders, which is
//! what `METRICS` serves.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of histogram buckets: upper bounds `2^0 .. 2^26` plus +Inf.
/// With microsecond observations the finite range spans 1 µs … ~67 s.
pub const HIST_BUCKETS: usize = 28;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New zeroed counter.
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An integer gauge (set to the latest observation).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// New zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A float gauge (f64 bits in an atomic) — for ratios.
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// New gauge holding 0.0.
    pub const fn new() -> FloatGauge {
        FloatGauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log2 histogram. Bucket `i < 27` counts observations
/// `<= 2^i`; bucket 27 is +Inf. Observations are unit-agnostic u64s
/// (microseconds by convention for latency metrics).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Index of the (non-cumulative) bucket an observation lands in.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let ceil_log2 = 64 - (v - 1).leading_zeros() as usize;
    ceil_log2.min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// New empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The finite upper bound of bucket `i`, or `None` for +Inf.
    pub fn bucket_upper(i: usize) -> Option<u64> {
        (i < HIST_BUCKETS - 1).then(|| 1u64 << i)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// A family of counters or histograms split by one label dimension
/// (e.g. `phase` or `code`). Members are created on first use and render
/// as `name{<key>="<value>"}` series (histogram members with their `le`
/// buckets).
#[derive(Debug)]
pub struct Family<M: 'static> {
    pub(crate) label_key: &'static str,
    members: Mutex<BTreeMap<String, &'static M>>,
}

impl<M: Member> Family<M> {
    fn new(label_key: &'static str) -> Family<M> {
        Family {
            label_key,
            members: Mutex::new(BTreeMap::new()),
        }
    }

    /// The member for `label_value` (created empty on first use). Takes
    /// the family lock — cache the returned handle when updating it in a
    /// loop.
    pub fn with(&self, label_value: &str) -> &'static M {
        let mut members = self
            .members
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(m) = members.get(label_value) {
            return m;
        }
        let m: &'static M = Box::leak(Box::default());
        members.insert(label_value.to_string(), m);
        m
    }

    /// The `(label_value, member)` pairs, sorted by label.
    pub(crate) fn members(&self) -> Vec<(String, &'static M)> {
        self.members
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }
}

mod sealed {
    use super::Family;

    /// What a [`Family`] holds: a [`Counter`](super::Counter) or a
    /// [`Histogram`](super::Histogram). The trait cannot be named outside
    /// this crate, so families are registered only through
    /// [`LazyFamily`](super::LazyFamily).
    pub trait Member: Default + Sync + 'static {
        /// Registers (or fetches) the family `name` of this member type,
        /// split by `label_key`.
        ///
        /// # Panics
        ///
        /// If `name` was already registered as a different metric type.
        fn family(
            name: &'static str,
            help: &'static str,
            label_key: &'static str,
        ) -> &'static Family<Self>;
    }
}
use sealed::Member;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
pub(crate) enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    FloatGauge(&'static FloatGauge),
    Histogram(&'static Histogram),
    HistogramFamily(&'static Family<Histogram>),
    CounterFamily(&'static Family<Counter>),
}

pub(crate) struct Entry {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) handle: Handle,
}

pub(crate) fn registry() -> MutexGuard<'static, Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn register(name: &'static str, help: &'static str, make: impl FnOnce() -> Handle) -> Handle {
    let mut reg = registry();
    if let Some(entry) = reg.iter().find(|e| e.name == name) {
        return entry.handle;
    }
    let handle = make();
    reg.push(Entry { name, help, handle });
    handle
}

/// Registers (or fetches) the counter `name`.
///
/// # Panics
///
/// If `name` was already registered as a different metric type.
fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    match register(name, help, || {
        Handle::Counter(Box::leak(Box::new(Counter::new())))
    }) {
        Handle::Counter(c) => c,
        _ => panic!("metric `{name}` already registered with a different type"),
    }
}

/// Registers (or fetches) the gauge `name`.
///
/// # Panics
///
/// If `name` was already registered as a different metric type.
fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    match register(name, help, || {
        Handle::Gauge(Box::leak(Box::new(Gauge::new())))
    }) {
        Handle::Gauge(g) => g,
        _ => panic!("metric `{name}` already registered with a different type"),
    }
}

/// Registers (or fetches) the float gauge `name`.
///
/// # Panics
///
/// If `name` was already registered as a different metric type.
fn float_gauge(name: &'static str, help: &'static str) -> &'static FloatGauge {
    match register(name, help, || {
        Handle::FloatGauge(Box::leak(Box::new(FloatGauge::new())))
    }) {
        Handle::FloatGauge(g) => g,
        _ => panic!("metric `{name}` already registered with a different type"),
    }
}

/// Registers (or fetches) the histogram `name`.
///
/// # Panics
///
/// If `name` was already registered as a different metric type.
fn histogram(name: &'static str, help: &'static str) -> &'static Histogram {
    match register(name, help, || {
        Handle::Histogram(Box::leak(Box::new(Histogram::new())))
    }) {
        Handle::Histogram(h) => h,
        _ => panic!("metric `{name}` already registered with a different type"),
    }
}

impl Member for Histogram {
    fn family(
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> &'static Family<Histogram> {
        match register(name, help, || {
            Handle::HistogramFamily(Box::leak(Box::new(Family::new(label_key))))
        }) {
            Handle::HistogramFamily(f) => f,
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }
}

impl Member for Counter {
    fn family(
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> &'static Family<Counter> {
        match register(name, help, || {
            Handle::CounterFamily(Box::leak(Box::new(Family::new(label_key))))
        }) {
            Handle::CounterFamily(f) => f,
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }
}

// ---------------------------------------------------------------------------
// Lazy call-site handles
// ---------------------------------------------------------------------------

macro_rules! lazy_handle {
    ($lazy:ident, $target:ident, $ctor:ident, $doc:literal) => {
        #[doc = $doc]
        /// Declared `static` at the call-site; registers on first touch,
        /// after which every access is one `OnceLock` load.
        pub struct $lazy {
            name: &'static str,
            help: &'static str,
            cell: OnceLock<&'static $target>,
        }

        impl $lazy {
            /// Const constructor for `static` declarations.
            pub const fn new(name: &'static str, help: &'static str) -> $lazy {
                $lazy {
                    name,
                    help,
                    cell: OnceLock::new(),
                }
            }

            /// The registered metric handle.
            pub fn get(&self) -> &'static $target {
                self.cell.get_or_init(|| $ctor(self.name, self.help))
            }
        }
    };
}

lazy_handle!(
    LazyCounter,
    Counter,
    counter,
    "A lazily registered [`Counter`]."
);
lazy_handle!(LazyGauge, Gauge, gauge, "A lazily registered [`Gauge`].");
lazy_handle!(
    LazyFloatGauge,
    FloatGauge,
    float_gauge,
    "A lazily registered [`FloatGauge`]."
);
lazy_handle!(
    LazyHistogram,
    Histogram,
    histogram,
    "A lazily registered [`Histogram`]."
);

impl LazyCounter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }
}

impl LazyGauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.get().set(v);
    }
}

impl LazyFloatGauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.get().set(v);
    }
}

impl LazyHistogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.get().observe(v);
    }
}

/// A lazily registered [`Family`] of counters or histograms. Declared
/// `static` at the call-site; registers on first touch, after which
/// every access is one `OnceLock` load.
pub struct LazyFamily<M: 'static> {
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    cell: OnceLock<&'static Family<M>>,
}

impl<M: Member> LazyFamily<M> {
    /// Const constructor for `static` declarations.
    pub const fn new(
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> LazyFamily<M> {
        LazyFamily {
            name,
            help,
            label_key,
            cell: OnceLock::new(),
        }
    }

    /// The registered family handle.
    pub fn get(&self) -> &'static Family<M> {
        self.cell
            .get_or_init(|| M::family(self.name, self.help, self.label_key))
    }

    /// The member for `label_value`.
    #[inline]
    pub fn with(&self, label_value: &str) -> &'static M {
        self.get().with(label_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::{parse_exposition, render_prometheus};

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 26), 26);
        assert_eq!(bucket_index((1 << 26) + 1), 27);
        assert_eq!(bucket_index(u64::MAX), 27);
        // Every finite bucket's upper bound maps into that bucket.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(Histogram::bucket_upper(i).unwrap()), i);
        }
        assert_eq!(Histogram::bucket_upper(HIST_BUCKETS - 1), None);
    }

    /// The value a scrape shows for the sample `name` with exactly
    /// `labels` (0 when the series is not registered yet).
    fn scraped(name: &str, labels: &[(&str, &str)]) -> f64 {
        parse_exposition(&render_prometheus())
            .expect("the registry renders a parsable exposition")
            .into_iter()
            .find(|s| {
                s.name == name
                    && s.labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .eq(labels.iter().copied())
            })
            .map_or(0.0, |s| s.value)
    }

    #[test]
    fn histogram_observe_fills_log2_buckets() {
        let h = Histogram::new();
        for v in [1, 1, 2, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        let counts = h.counts();
        assert_eq!(counts[0], 2); // both 1s
        assert_eq!(counts[1], 1); // the 2
        assert_eq!(counts[2], 1); // the 4
        assert_eq!(counts[7], 1); // 100 ≤ 128
                                  // Past-the-end observations saturate into +Inf.
        h.observe(u64::MAX);
        assert_eq!(h.counts()[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn registry_dedupes_and_scrapes_diff() {
        let c1 = counter("obs_test_requests_total", "test counter");
        let c2 = counter("obs_test_requests_total", "test counter");
        assert!(std::ptr::eq(c1, c2));
        let before = scraped("obs_test_requests_total", &[]);
        c1.inc();
        c1.add(2);
        assert_eq!(scraped("obs_test_requests_total", &[]) - before, 3.0);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        counter("obs_test_confused", "a counter");
        gauge("obs_test_confused", "now a gauge");
    }

    #[test]
    fn counter_family_members_render_into_snapshot() {
        let fam = Counter::family("obs_test_diags_total", "per-code", "code");
        fam.with("SD01").add(3);
        fam.with("SD02").inc();
        assert_eq!(scraped("obs_test_diags_total", &[("code", "SD01")]), 3.0);
        assert_eq!(scraped("obs_test_diags_total", &[("code", "SD02")]), 1.0);
        // Repeated `with` returns the same member.
        assert!(std::ptr::eq(fam.with("SD01"), fam.with("SD01")));
        assert_eq!(fam.members().len(), 2);
    }

    #[test]
    fn family_members_render_into_snapshot() {
        let fam = Histogram::family("obs_test_phase_us", "per-phase", "phase");
        fam.with("verify").observe(1000);
        fam.with("parse").observe(2);
        assert_eq!(
            scraped("obs_test_phase_us_sum", &[("phase", "verify")]),
            1000.0
        );
        assert_eq!(
            scraped("obs_test_phase_us_count", &[("phase", "parse")]),
            1.0
        );
        assert_eq!(
            scraped(
                "obs_test_phase_us_bucket",
                &[("phase", "parse"), ("le", "2")]
            ),
            1.0
        );
        // Repeated `with` returns the same member.
        assert!(std::ptr::eq(fam.with("verify"), fam.with("verify")));
        assert_eq!(fam.members().len(), 2);
    }
}
