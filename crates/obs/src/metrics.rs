//! The metrics registry: counters, gauges and log-scale histograms.
//!
//! A [`Registry`] owns *families* (one metric name + help text), each
//! holding one or more *series* (label sets). Handles returned by the
//! registration methods are cheap `Arc`-backed atomics: recording is
//! lock-free, and registering the same `(name, labels)` twice returns
//! the same underlying series, so call sites can register lazily
//! without coordination. Snapshots iterate families and series in
//! sorted order, which is what makes the `/metrics` text exposition
//! deterministic for a given set of recorded values.
//!
//! Histograms use fixed log-linear buckets (powers of two, sixteen
//! sub-buckets per octave — relative quantile error is bounded by
//! 1/16th of the value) over the full `u64` range, so two histograms
//! recorded independently merge into exactly the histogram of the
//! concatenated stream ([`Histogram::merge_from`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sub-bucket resolution: 4 bits → 16 sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Maps a value to its bucket index (log-linear, exact below
/// [`SUB_COUNT`]).
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let exp = u64::from(63 - value.leading_zeros());
    let sub_bits = u64::from(SUB_BITS);
    let sub = (value >> (exp - sub_bits)) & (SUB_COUNT - 1);
    (((exp - sub_bits + 1) << sub_bits) + sub) as usize
}

/// The largest value mapping to bucket `index` (the bucket's inclusive
/// upper bound; quantiles report this bound).
fn bucket_upper_bound(index: usize) -> u64 {
    let group = (index as u64) >> SUB_BITS;
    let sub = (index as u64) & (SUB_COUNT - 1);
    if group == 0 {
        sub
    } else {
        let base = (SUB_COUNT + sub) << (group - 1);
        let width = 1u64 << (group - 1);
        base.saturating_add(width - 1)
    }
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter (unregistered; for tests and local use).
    #[must_use]
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A gauge: a value that can move both ways.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A standalone gauge (unregistered; for tests and local use).
    #[must_use]
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Shared histogram state: one atomic per bucket plus count and sum.
struct HistCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// latencies in microseconds or nanoseconds; the unit is the call
/// site's convention, named in the metric).
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// A standalone histogram (unregistered; for local percentile math
    /// such as `servecli load`).
    #[must_use]
    pub fn new() -> Self {
        Histogram(Arc::new(HistCore::new()))
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as integer microseconds.
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping at `u64`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding it: an over-estimate by at most one part in sixteen.
    /// Returns 0 on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Folds `other`'s samples into `self`. Because buckets are fixed
    /// and identical across instances, merging is exactly equivalent to
    /// having recorded both sample streams into one histogram.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(&other.0.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// `(upper_bound, count)` for every non-empty bucket, in value
    /// order.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One registered series: the handle plus its rendered label suffix.
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric family: help text, kind and its series keyed by rendered
/// labels (`""` for the unlabeled series).
struct Family {
    help: &'static str,
    series: BTreeMap<String, Series>,
}

/// A collection of metric families with deterministic snapshots.
///
/// Most code uses the process-wide [`global`] registry; tests that
/// need isolation construct their own.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// Renders a label set as a Prometheus label suffix (`{k="v",...}`),
/// empty for no labels. Label order is the caller's, which must be
/// consistent per family for determinism (all call sites in this
/// workspace use literal label slices).
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn series(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self
            .families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            series: BTreeMap::new(),
        });
        let key = render_labels(labels);
        match family.series.entry(key).or_insert_with(make) {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    /// Registers (or retrieves) the unlabeled counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered with a different metric kind.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) the counter `name` with `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered with a different metric kind.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        match self.series(name, help, labels, || Series::Counter(Counter::new())) {
            Series::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) the unlabeled gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered with a different metric kind.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) the gauge `name` with `labels` (e.g.
    /// the serve layer's per-state connection gauge family).
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered with a different metric kind.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Gauge {
        match self.series(name, help, labels, || Series::Gauge(Gauge::new())) {
            Series::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) the unlabeled histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered with a different metric kind.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) the histogram `name` with `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was registered with a different metric kind.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series(name, help, labels, || Series::Histogram(Histogram::new())) {
            Series::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// A flat `(series name, value)` snapshot of every counter and
    /// gauge (histograms surface as `<name>_count`), sorted by name —
    /// the counter snapshot `/stats` embeds.
    #[must_use]
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        let families = self
            .families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => out.push((format!("{name}{labels}"), c.get())),
                    Series::Gauge(g) => {
                        out.push((format!("{name}{labels}"), g.get().max(0) as u64));
                    }
                    Series::Histogram(h) => {
                        out.push((format!("{name}_count{labels}"), h.count()));
                    }
                }
            }
        }
        out
    }

    /// Renders every family in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket` lines with
    /// `le` bounds in the histogram's native unit, `_sum`/`_count`).
    /// Families and series render in sorted order: two snapshots of
    /// the same recorded values are byte-identical.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let families = self
            .families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = match family.series.values().next() {
                Some(Series::Counter(_)) => "counter",
                Some(Series::Gauge(_)) => "gauge",
                Some(Series::Histogram(_)) => "histogram",
                None => continue,
            };
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Series::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (ub, n) in h.nonzero_buckets() {
                            cumulative += n;
                            let le = bucket_label(labels, ub);
                            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        }
                        let inf = bucket_label_inf(labels);
                        let _ = writeln!(out, "{name}_bucket{inf} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

/// Splices an `le` bound into an existing label suffix.
fn bucket_label(labels: &str, ub: u64) -> String {
    if labels.is_empty() {
        format!("{{le=\"{ub}\"}}")
    } else {
        format!("{},le=\"{ub}\"}}", &labels[..labels.len() - 1])
    }
}

fn bucket_label_inf(labels: &str) -> String {
    if labels.is_empty() {
        "{le=\"+Inf\"}".to_string()
    } else {
        format!("{},le=\"+Inf\"}}", &labels[..labels.len() - 1])
    }
}

/// The process-wide registry every crate's instrumentation records
/// into; `GET /metrics` renders it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let mut last = 0usize;
        for v in [0u64, 1, 3, 4, 9, 15, 16, 17, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "index must not decrease: {v}");
            last = i;
            let ub = bucket_upper_bound(i);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            // Exact below 16, relative error ub <= v + v/16 above.
            assert!(ub - v <= v / 16, "bucket too wide at {v}: ub {ub}");
        }
        assert!(bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn exact_below_four_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6);
    }

    #[test]
    fn registry_dedups_and_snapshots_sorted() {
        let r = Registry::new();
        let a = r.counter("zzz_total", "z");
        let b = r.counter("zzz_total", "z");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same series behind both handles");
        r.counter_with("aaa_total", "a", &[("k", "v")]).add(7);
        r.gauge("mmm", "m").set(5);
        let snap = r.counter_snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["aaa_total{k=\"v\"}", "mmm", "zzz_total"]);
        assert_eq!(snap[0].1, 7);
        assert_eq!(snap[2].1, 3);
    }

    #[test]
    fn prometheus_render_is_deterministic() {
        let r = Registry::new();
        r.counter("b_total", "bees").add(2);
        r.histogram("a_us", "durations").record(5);
        let one = r.render_prometheus();
        let two = r.render_prometheus();
        assert_eq!(one, two);
        assert!(one.contains("# TYPE a_us histogram"));
        assert!(one.contains("a_us_bucket{le=\"+Inf\"} 1"));
        assert!(one.contains("a_us_sum 5"));
        assert!(one.contains("b_total 2"));
        // Families in name order: a_us before b_total.
        assert!(one.find("a_us").unwrap() < one.find("b_total").unwrap());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "x");
        r.gauge("x", "x");
    }
}
