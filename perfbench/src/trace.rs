//! Tracing from outside the library: spans around the benchmark's calls
//! into each layer's public functions, counts read from the report types
//! those calls return, and a forwarding metric wrapper that counts
//! distance reads.
//!
//! Spans are kept in memory and written out (aggregated, and optionally
//! as CSV) when the run ends. With tracing off every method is a single
//! branch, so the untraced passes run the library exactly as a caller
//! would.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use max_sum_diversification::metric::{ElementId, Metric, PerturbableMetric};

use crate::host::wall_ns;

/// One closed interval of work. Spans of one request share `request`;
/// a child span's `parent` is the index of its request span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder plus per-request observations, keyed by metric name.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    request: u64,
    open_request: Option<usize>,
    child_ns: u64,
    spans: Vec<Span>,
    /// Span durations in ms, by span name.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Observed values (counts, class indicators), by name.
    values: BTreeMap<&'static str, Vec<f64>>,
    request_ns: u64,
    self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (warm-up requests are not traced).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens the span of the next request.
    pub fn start_request(&mut self) {
        if !self.enabled {
            return;
        }
        self.request += 1;
        self.child_ns = 0;
        self.open_request = Some(self.spans.len());
        let now = wall_ns();
        self.spans.push(Span {
            request: self.request,
            parent: None,
            name: "request",
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the request span and records its duration (ms) under
    /// `class`, when given. The request's self time — its span minus its
    /// children — is the benchmark's own glue.
    pub fn end_request(&mut self, class: Option<&'static str>) {
        let Some(i) = self.open_request.take() else {
            return;
        };
        let span = &mut self.spans[i];
        span.end_ns = wall_ns();
        let total = span.end_ns - span.start_ns;
        self.request_ns += total;
        self.self_ns += total.saturating_sub(self.child_ns);
        if let Some(class) = class {
            self.durations
                .entry(class)
                .or_default()
                .push(total as f64 * 1e-6);
        }
    }

    /// Runs `f` inside a span named `name` (a child of the open request,
    /// if any).
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = wall_ns();
        let out = f();
        let end_ns = wall_ns();
        if self.open_request.is_some() {
            self.child_ns += end_ns - start_ns;
        }
        self.spans.push(Span {
            request: self.request,
            parent: self.open_request,
            name,
            start_ns,
            end_ns,
        });
        self.durations
            .entry(name)
            .or_default()
            .push((end_ns - start_ns) as f64 * 1e-6);
        out
    }

    /// Records one observation of `name`.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.values.entry(name).or_default().push(value);
        }
    }

    /// Records a 1 under the class that happened and a 0 under the rest,
    /// so the mean of each is its share.
    pub fn observe_class(&mut self, classes: &[&'static str], happened: &'static str) {
        for &c in classes {
            self.observe(c, f64::from(u8::from(c == happened)));
        }
    }

    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Share of traced request time spent outside every library span.
    pub fn glue_share(&self) -> f64 {
        if self.request_ns == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.request_ns as f64
        }
    }

    /// Writes every span as CSV (`request,parent,name,start_ns,end_ns`).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request,parent,name,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.request, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Distance reads of one metric family.
#[derive(Debug)]
pub struct MetricCounters {
    /// Pairs read through `distance`, `distance_to_set`, `dispersion`
    /// and `cross_dispersion`.
    pairs: AtomicU64,
    /// `accumulate_distances` row sweeps.
    rows: AtomicU64,
}

impl Default for MetricCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricCounters {
    pub const fn new() -> Self {
        MetricCounters {
            pairs: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        }
    }

    /// `(pairs, rows)` so far.
    pub fn read(&self) -> (u64, u64) {
        (self.pairs.load(Relaxed), self.rows.load(Relaxed))
    }

    // The benchmark is single-threaded, so a relaxed load + store is
    // exact and avoids a locked read-modify-write in the hot path.
    #[inline]
    fn add(counter: &AtomicU64, by: u64) {
        counter.store(counter.load(Relaxed) + by, Relaxed);
    }
}

/// Reads of implicit (point-backed) metrics.
pub static IMPLICIT: MetricCounters = MetricCounters::new();
/// Reads of dense `DistanceMatrix` metrics.
pub static MATRIX: MetricCounters = MetricCounters::new();

/// Forwarding metric that counts reads. Every trait method forwards to
/// the inner metric's own implementation, so specialised kernels (the
/// matrix's row sweep, the implicit metric's tiled kernel) still run;
/// the traced run proves it by reproducing the untraced objectives bit
/// for bit.
#[derive(Debug, Clone)]
pub struct Counted<M> {
    inner: M,
    counters: &'static MetricCounters,
}

impl<M> Counted<M> {
    pub fn new(inner: M, counters: &'static MetricCounters) -> Self {
        Counted { inner, counters }
    }
}

impl<M: Metric> Metric for Counted<M> {
    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        MetricCounters::add(&self.counters.pairs, 1);
        self.inner.distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        MetricCounters::add(&self.counters.pairs, set.len() as u64);
        self.inner.distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        let k = set.len() as u64;
        MetricCounters::add(&self.counters.pairs, k * k.saturating_sub(1) / 2);
        self.inner.dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        MetricCounters::add(&self.counters.pairs, (xs.len() * ys.len()) as u64);
        self.inner.cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        MetricCounters::add(&self.counters.rows, 1);
        self.inner.accumulate_distances(u, out, factor)
    }
}

impl<M: PerturbableMetric> PerturbableMetric for Counted<M> {
    fn set_distance(&mut self, u: ElementId, v: ElementId, value: f64) -> f64 {
        self.inner.set_distance(u, v, value)
    }
}

/// Per-request deltas of a [`MetricCounters`].
#[derive(Debug, Clone, Copy)]
pub struct CounterMark((u64, u64));

impl CounterMark {
    pub fn take(counters: &MetricCounters) -> Self {
        CounterMark(counters.read())
    }

    /// Records the reads since `self` under `pairs_name` / `rows_name`.
    pub fn record(
        self,
        counters: &MetricCounters,
        tracer: &mut Tracer,
        pairs_name: &'static str,
        rows_name: &'static str,
    ) {
        let (p, r) = counters.read();
        tracer.observe(pairs_name, (p - self.0 .0) as f64);
        tracer.observe(rows_name, (r - self.0 .1) as f64);
    }
}
