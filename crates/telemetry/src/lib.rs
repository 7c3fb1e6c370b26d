//! # eco-telemetry — the pipeline's observability spine
//!
//! One instrumentation layer shared by every stage of the
//! submit → predict pipeline: the Slurm simulator's `sbatch` path, the
//! `job_submit_eco` plugin, the remote prediction client, and the
//! chronusd daemon all emit through the same three primitives:
//!
//! * **[`Counter`]** — a named atomic, bumped lock-free on hot paths;
//! * **[`Histogram`]** — fixed power-of-two latency buckets (no
//!   allocation, no lock) from which p50/p99 are derived;
//! * **[`Span`]** — a timed slice of work inside a trace, recorded into
//!   a shared ring-buffer [`Recorder`] when it closes.
//!
//! Spans carry a [`TraceContext`] (`TraceId` + `SpanId`) that crosses
//! process boundaries: the wire protocol ships it in an optional request
//! header, so one submission yields one connected trace from sbatch
//! parsing through plugin, client retries, daemon service and registry
//! lookup.
//!
//! ## Clocks
//!
//! All timing goes through a pluggable [`TelemetryClock`]. Production
//! uses [`WallClock`] (monotonic `Instant`); the simulation harness
//! plugs in virtual time, which makes span durations — and therefore
//! deadline verdicts and latency histograms — a deterministic function
//! of injected delays rather than of host scheduling jitter.
//!
//! ## Sharing
//!
//! A [`Telemetry`] instance owns its counter/histogram namespace, but
//! the [`Recorder`] is `Arc`-shared: several instances (say, successive
//! daemon incarnations whose counters must restart at zero) can append
//! to one timeline, exactly like processes reporting to one collector.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

/// Identifies one end-to-end trace (one submission, one admin RPC, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

/// The propagated trace context: enough for a remote peer to parent its
/// spans under ours. Ships on the wire as an optional request-frame
/// header; absence simply means the caller is untraced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace every span downstream of this point belongs to.
    pub trace: TraceId,
    /// The span a downstream peer should use as its parent.
    pub span: SpanId,
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The clock all span timing, deadline accounting and histogram
/// recording goes through.
pub trait TelemetryClock: Send + Sync {
    /// Microseconds since an arbitrary fixed epoch.
    fn now_micros(&self) -> u64;
}

/// The production clock: monotonic wall time via [`Instant`].
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock { epoch: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl TelemetryClock for WallClock {
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A named atomic counter. Cloning shares the underlying cell, so hot
/// paths resolve the name once and bump a bare atomic thereafter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A named atomic gauge: a last-write-wins level (queue depth, drift
/// score, reservoir occupancy) as opposed to a [`Counter`]'s monotone
/// accumulation. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge (not registered anywhere).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the level.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the level to `value` if it is below it.
    pub fn set_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Histogram buckets: bucket `i` counts values in `(2^(i-1), 2^i]`
/// microseconds (bucket 0 is `<= 1 µs`). 2^39 µs is ~6 days — more than
/// any request will ever take.
pub const HISTOGRAM_BUCKETS: usize = 40;

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    max: AtomicU64,
}

/// A fixed-bucket latency histogram; recording touches two atomics and
/// never allocates or locks. Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Median (µs, bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile (µs, bucket upper bound).
    pub p99_us: u64,
    /// Worst observed value (µs, exact).
    pub max_us: u64,
}

impl Histogram {
    /// A free-standing histogram (not registered anywhere).
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }))
    }

    /// The bucket index a value lands in: `ceil(log2(us))`, clamped.
    pub fn bucket_for(us: u64) -> usize {
        if us <= 1 {
            return 0;
        }
        ((64 - (us - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one value (microseconds).
    pub fn record_us(&self, us: u64) {
        self.0.max.fetch_max(us, Ordering::Relaxed);
        self.0.buckets[Self::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The upper bound (µs) of the first bucket at or above percentile
    /// `p` (0.0..=1.0) of the recorded population; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let counts: [u64; HISTOGRAM_BUCKETS] = std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }

    /// Worst observed value (exact).
    pub fn max_us(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A p50/p99/max summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            p50_us: self.percentile_us(0.50),
            p99_us: self.percentile_us(0.99),
            max_us: self.max_us(),
        }
    }
}

// ---------------------------------------------------------------------------
// Events and the recorder
// ---------------------------------------------------------------------------

/// One closed span, as recorded. `attrs` entries are `key=value`
/// strings; `outcome` is `"ok"` or an error description. `layer`, `name`
/// and the `"ok"` outcome are literals at every call site, so they are
/// carried borrowed — a closed span allocates for what it measured, not
/// for what the source already spells; on the wire they are plain
/// strings either way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id, if any (roots have none).
    #[serde(default)]
    pub parent: Option<u64>,
    /// Which layer emitted it (`slurm`, `plugin`, `client`, `daemon`).
    pub layer: Cow<'static, str>,
    /// What the span covers (`sbatch`, `attempt`, `handle`, ...).
    pub name: Cow<'static, str>,
    /// Clock reading at open (µs).
    pub start_us: u64,
    /// Clock reading at close (µs).
    pub end_us: u64,
    /// `"ok"` or an error description.
    pub outcome: Cow<'static, str>,
    /// `key=value` annotations.
    #[serde(default)]
    pub attrs: Vec<String>,
}

impl TraceEvent {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// True when the span closed without an error outcome.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok"
    }
}

struct RecorderBuf {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring buffer of closed spans, plus the id well every trace
/// and span draws from. `Arc`-share one recorder across [`Telemetry`]
/// instances to keep a single connected timeline while counters reset
/// (e.g. across daemon restarts).
pub struct Recorder {
    cap: usize,
    buf: Mutex<RecorderBuf>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

/// Default ring capacity: enough for thousands of spans without
/// unbounded growth on long-lived daemons.
pub const DEFAULT_RECORDER_CAPACITY: usize = 16_384;

impl Recorder {
    /// A recorder keeping at most `cap` most-recent events.
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            cap: cap.max(1),
            buf: Mutex::new(RecorderBuf { events: VecDeque::new(), dropped: 0 }),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
        }
    }

    /// Allocates a fresh trace id (unique within this recorder).
    pub fn new_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a fresh span id (unique within this recorder).
    pub fn new_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Appends one closed span, evicting the oldest once full.
    pub fn append(&self, event: TraceEvent) {
        let mut buf = self.buf.lock();
        if buf.events.len() >= self.cap {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(event);
    }

    /// A copy of every retained event, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.lock().events.iter().cloned().collect()
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().dropped
    }

    /// Events belonging to one trace, oldest first.
    pub fn trace_events(&self, trace: TraceId) -> Vec<TraceEvent> {
        self.buf.lock().events.iter().filter(|e| e.trace == trace.0).cloned().collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_RECORDER_CAPACITY)
    }
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

/// A timed slice of work. Closing (explicitly via [`Span::finish`] /
/// [`Span::fail`], or implicitly on drop) records a [`TraceEvent`] with
/// the clock's current reading as the end time.
pub struct Span {
    recorder: Arc<Recorder>,
    clock: Arc<dyn TelemetryClock>,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    layer: &'static str,
    name: Cow<'static, str>,
    start_us: u64,
    attrs: Vec<String>,
    outcome: Option<String>,
}

impl Span {
    /// The context downstream work (local children or remote peers)
    /// should parent under.
    pub fn context(&self) -> TraceContext {
        TraceContext { trace: self.trace, span: self.id }
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Opens a child span under this one, on the same recorder/clock.
    pub fn child(&self, layer: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        Span {
            recorder: Arc::clone(&self.recorder),
            clock: Arc::clone(&self.clock),
            trace: self.trace,
            id: self.recorder.new_span(),
            parent: Some(self.id),
            layer,
            name: name.into(),
            start_us: self.clock.now_micros(),
            attrs: Vec::new(),
            outcome: None,
        }
    }

    /// Annotates the span with a `key=value` attribute.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        self.attrs.push(format!("{key}={value}"));
    }

    /// Marks the span failed; the outcome is recorded at close.
    pub fn set_error(&mut self, message: impl Into<String>) {
        self.outcome = Some(message.into());
    }

    /// Closes the span successfully (drop would record the same).
    pub fn finish(self) {}

    /// Closes the span with an error outcome.
    pub fn fail(mut self, message: impl Into<String>) {
        self.set_error(message);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let event = TraceEvent {
            trace: self.trace.0,
            span: self.id.0,
            parent: self.parent.map(|p| p.0),
            layer: Cow::Borrowed(self.layer),
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            end_us: self.clock.now_micros(),
            outcome: self.outcome.take().map_or(Cow::Borrowed("ok"), Cow::Owned),
            attrs: std::mem::take(&mut self.attrs),
        };
        self.recorder.append(event);
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// One layer's telemetry handle: a counter/histogram namespace plus a
/// (possibly shared) recorder and clock.
pub struct Telemetry {
    clock: Arc<dyn TelemetryClock>,
    recorder: Arc<Recorder>,
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::wall()
    }
}

impl Telemetry {
    /// Production telemetry: wall clock, private recorder.
    pub fn wall() -> Telemetry {
        Telemetry::with_clock(Arc::new(WallClock::new()))
    }

    /// Telemetry on an explicit clock, private recorder.
    pub fn with_clock(clock: Arc<dyn TelemetryClock>) -> Telemetry {
        Telemetry::with_parts(clock, Arc::new(Recorder::default()))
    }

    /// Telemetry on an explicit clock and a shared recorder — the shape
    /// the simulation harness uses so every layer and every daemon
    /// incarnation writes one connected timeline.
    pub fn with_parts(clock: Arc<dyn TelemetryClock>, recorder: Arc<Recorder>) -> Telemetry {
        Telemetry {
            clock,
            recorder,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// The clock spans and histograms are timed with.
    pub fn clock(&self) -> Arc<dyn TelemetryClock> {
        Arc::clone(&self.clock)
    }

    /// The recorder closed spans land in.
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.recorder)
    }

    /// The clock's current reading (µs).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The named counter, created on first use. Callers on hot paths
    /// should resolve once and keep the (cheaply cloned) handle.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters.write().entry(name.to_string()).or_default().clone()
    }

    /// The named gauge, created on first use (level zero).
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges.write().entry(name.to_string()).or_default().clone()
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms.write().entry(name.to_string()).or_default().clone()
    }

    /// Opens a root span, allocating a fresh trace.
    pub fn root_span(&self, layer: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        let trace = self.recorder.new_trace();
        Span {
            recorder: Arc::clone(&self.recorder),
            clock: Arc::clone(&self.clock),
            trace,
            id: self.recorder.new_span(),
            parent: None,
            layer,
            name: name.into(),
            start_us: self.clock.now_micros(),
            attrs: Vec::new(),
            outcome: None,
        }
    }

    /// Opens a span under a propagated [`TraceContext`] — how a remote
    /// peer (or a layer handed a context) joins an existing trace.
    pub fn span_under(&self, ctx: TraceContext, layer: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        Span {
            recorder: Arc::clone(&self.recorder),
            clock: Arc::clone(&self.clock),
            trace: ctx.trace,
            id: self.recorder.new_span(),
            parent: Some(ctx.span),
            layer,
            name: name.into(),
            start_us: self.clock.now_micros(),
            attrs: Vec::new(),
            outcome: None,
        }
    }

    /// Opens a span that joins `ctx` when present, or roots a fresh
    /// trace when absent (an untraced peer).
    pub fn span_maybe_under(
        &self,
        ctx: Option<TraceContext>,
        layer: &'static str,
        name: impl Into<Cow<'static, str>>,
    ) -> Span {
        match ctx {
            Some(ctx) => self.span_under(ctx, layer, name),
            None => self.root_span(layer, name),
        }
    }

    /// Every counter's current value, by name.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Every gauge's current level, by name.
    pub fn gauges_snapshot(&self) -> BTreeMap<String, u64> {
        self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Every histogram's summary, by name.
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms.read().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Serializes counters, histogram summaries and the recorded
    /// timeline as one JSON document (the simtest failure artifact and
    /// the CLI's `trace` export).
    pub fn export_json(&self) -> String {
        #[derive(Serialize)]
        struct CounterRow {
            name: String,
            value: u64,
        }
        #[derive(Serialize)]
        struct HistogramRow {
            name: String,
            snapshot: HistogramSnapshot,
        }
        #[derive(Serialize)]
        struct Export {
            counters: Vec<CounterRow>,
            gauges: Vec<CounterRow>,
            histograms: Vec<HistogramRow>,
            events_dropped: u64,
            events: Vec<TraceEvent>,
        }
        let export = Export {
            counters: self.counters_snapshot().into_iter().map(|(name, value)| CounterRow { name, value }).collect(),
            gauges: self.gauges_snapshot().into_iter().map(|(name, value)| CounterRow { name, value }).collect(),
            histograms: self
                .histograms_snapshot()
                .into_iter()
                .map(|(name, snapshot)| HistogramRow { name, snapshot })
                .collect(),
            events_dropped: self.recorder.dropped(),
            events: self.recorder.events(),
        };
        serde_json::to_string_pretty(&export).expect("telemetry export always serializes")
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders one trace as an indented tree, children under parents in
/// start order:
///
/// ```text
/// trace 00000001
/// └─ slurm/sbatch 812µs ok
///    ├─ slurm/parse 14µs ok
///    └─ plugin/job_submit 780µs ok binary=/opt/hpcg/bin/xhpcg
///       └─ client/attempt 731µs ok attempt=1
/// ```
pub fn render_trace(events: &[TraceEvent], trace: TraceId) -> String {
    let mut of_trace: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == trace.0).collect();
    of_trace.sort_by_key(|e| (e.start_us, e.span));
    let mut out = format!("trace {trace}\n");
    let roots: Vec<&TraceEvent> =
        of_trace.iter().filter(|e| e.parent.is_none_or(|p| !of_trace.iter().any(|x| x.span == p))).copied().collect();
    for (i, root) in roots.iter().enumerate() {
        render_subtree(&of_trace, root, "", i + 1 == roots.len(), &mut out);
    }
    out
}

fn render_subtree(all: &[&TraceEvent], node: &TraceEvent, prefix: &str, last: bool, out: &mut String) {
    let connector = if last { "└─" } else { "├─" };
    let attrs = if node.attrs.is_empty() { String::new() } else { format!(" {}", node.attrs.join(" ")) };
    out.push_str(&format!(
        "{prefix}{connector} {}/{} {}µs {}{}\n",
        node.layer,
        node.name,
        node.duration_us(),
        node.outcome,
        attrs
    ));
    let children: Vec<&&TraceEvent> = all.iter().filter(|e| e.parent == Some(node.span)).collect();
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    for (i, child) in children.iter().enumerate() {
        render_subtree(all, child, &child_prefix, i + 1 == children.len(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manually advanced clock for deterministic tests.
    struct TestClock(AtomicU64);

    impl TestClock {
        fn advance(&self, us: u64) {
            self.0.fetch_add(us, Ordering::SeqCst);
        }
    }

    impl TelemetryClock for TestClock {
        fn now_micros(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn test_telemetry() -> (Arc<TestClock>, Telemetry) {
        let clock = Arc::new(TestClock(AtomicU64::new(0)));
        let tel = Telemetry::with_clock(Arc::clone(&clock) as Arc<dyn TelemetryClock>);
        (clock, tel)
    }

    #[test]
    fn counters_are_shared_by_name() {
        let (_c, tel) = test_telemetry();
        let a = tel.counter("plugin.applied");
        let b = tel.counter("plugin.applied");
        a.bump();
        b.add(2);
        assert_eq!(tel.counter("plugin.applied").get(), 3);
        assert_eq!(tel.counters_snapshot().get("plugin.applied"), Some(&3));
    }

    #[test]
    fn gauges_are_levels_not_accumulators() {
        let (_c, tel) = test_telemetry();
        let g = tel.gauge("daemon.adapt.drift_score_milli");
        g.set(250);
        g.set(120); // last write wins — no accumulation
        assert_eq!(tel.gauge("daemon.adapt.drift_score_milli").get(), 120);
        g.set_max(80); // below the level: no effect
        assert_eq!(g.get(), 120);
        g.set_max(500);
        assert_eq!(g.get(), 500);
        assert_eq!(tel.gauges_snapshot().get("daemon.adapt.drift_score_milli"), Some(&500));
        assert!(tel.export_json().contains("daemon.adapt.drift_score_milli"));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 0);
        assert_eq!(Histogram::bucket_for(2), 1);
        assert_eq!(Histogram::bucket_for(3), 2);
        assert_eq!(Histogram::bucket_for(4), 2);
        assert_eq!(Histogram::bucket_for(5), 3);
        assert_eq!(Histogram::bucket_for(1024), 10);
        assert_eq!(Histogram::bucket_for(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_walk_the_buckets() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_us(3); // bucket 2, upper bound 4
        }
        h.record_us(100_000);
        let snap = h.snapshot();
        assert_eq!(snap.p50_us, 4);
        assert_eq!(snap.p99_us, 4, "99th of 100 samples is still the fast bucket");
        assert_eq!(snap.max_us, 100_000);
        assert_eq!(snap.count, 100);
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn spans_record_timing_and_hierarchy() {
        let (clock, tel) = test_telemetry();
        let mut root = tel.root_span("slurm", "sbatch");
        root.attr("user", "alice");
        clock.advance(5);
        let child = root.child("plugin", "job_submit");
        clock.advance(10);
        drop(child);
        clock.advance(1);
        root.finish();

        let events = tel.recorder().events();
        assert_eq!(events.len(), 2, "children close before parents");
        let (child_e, root_e) = (&events[0], &events[1]);
        assert_eq!(root_e.parent, None);
        assert_eq!(child_e.parent, Some(root_e.span));
        assert_eq!(child_e.trace, root_e.trace);
        assert_eq!(child_e.duration_us(), 10);
        assert_eq!(root_e.duration_us(), 16);
        assert!(root_e.is_ok());
        assert_eq!(root_e.attrs, vec!["user=alice".to_string()]);
    }

    #[test]
    fn span_under_context_joins_the_remote_trace() {
        let (_c, tel) = test_telemetry();
        let root = tel.root_span("client", "attempt");
        let ctx = root.context();
        drop(root);
        // a "remote peer" sharing the recorder joins via the context
        let remote = tel.span_under(ctx, "daemon", "handle");
        drop(remote);
        let events = tel.recorder().events();
        assert_eq!(events[1].trace, events[0].trace);
        assert_eq!(events[1].parent, Some(events[0].span));
        // absent context roots a fresh trace instead
        drop(tel.span_maybe_under(None, "daemon", "handle"));
        let events = tel.recorder().events();
        assert_ne!(events[2].trace, events[0].trace);
    }

    #[test]
    fn failed_spans_carry_the_error_outcome() {
        let (_c, tel) = test_telemetry();
        tel.root_span("client", "attempt").fail("connect refused");
        let events = tel.recorder().events();
        assert_eq!(events[0].outcome, "connect refused");
        assert!(!events[0].is_ok());
    }

    #[test]
    fn recorder_ring_drops_oldest() {
        let recorder = Arc::new(Recorder::new(2));
        let tel = Telemetry::with_parts(Arc::new(WallClock::new()), Arc::clone(&recorder));
        for name in ["a", "b", "c"] {
            drop(tel.root_span("t", name));
        }
        assert_eq!(recorder.dropped(), 1);
        let events = recorder.events();
        let names: Vec<&str> = events.iter().map(|e| &*e.name).collect();
        assert_eq!(names, vec!["b", "c"], "oldest event evicted first");
    }

    #[test]
    fn shared_recorder_keeps_ids_unique_across_instances() {
        let recorder = Arc::new(Recorder::default());
        let clock: Arc<dyn TelemetryClock> = Arc::new(WallClock::new());
        let a = Telemetry::with_parts(Arc::clone(&clock), Arc::clone(&recorder));
        let b = Telemetry::with_parts(Arc::clone(&clock), Arc::clone(&recorder));
        drop(a.root_span("x", "one"));
        drop(b.root_span("y", "two"));
        let events = recorder.events();
        assert_ne!(events[0].trace, events[1].trace);
        assert_ne!(events[0].span, events[1].span);
        // counters stay per-instance: that's the "restart resets stats,
        // the timeline persists" contract
        a.counter("n").bump();
        assert_eq!(b.counter("n").get(), 0);
    }

    #[test]
    fn trace_context_roundtrips_as_json() {
        let ctx = TraceContext { trace: TraceId(u64::MAX), span: SpanId(7) };
        let json = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn export_json_contains_everything() {
        let (_c, tel) = test_telemetry();
        tel.counter("client.requests").bump();
        tel.histogram("daemon.service_us").record_us(5);
        drop(tel.root_span("slurm", "sbatch"));
        let json = tel.export_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(json.contains("client.requests"), "{json}");
        assert!(json.contains("daemon.service_us"), "{json}");
        assert!(json.contains("sbatch"), "{json}");
        assert!(v["events"].as_array().is_some());
        // events parse back into TraceEvent
        let events: Vec<TraceEvent> = serde_json::from_str(&serde_json::to_string(&v["events"]).unwrap()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "sbatch");
    }

    /// The three span strings are carried borrowed since PR 20; what
    /// leaves the process must not have noticed. The literals below were
    /// printed by this same scenario at the commit before (`651375d`):
    /// a root, an `ok` span with attrs, and a failed span with an owned
    /// name — through `export_json`, `render_trace` and one serialized
    /// `TraceEvent` each, which also parse back into the new types.
    #[test]
    fn exported_bytes_are_what_they_were_when_every_string_was_owned() {
        let (clock, tel) = test_telemetry();
        tel.counter("slurm.sbatch").bump();
        let mut root = tel.root_span("slurm", "sbatch");
        root.attr("user", "alice");
        clock.advance(2);
        let mut ok = root.child("plugin", "job_submit");
        ok.attr("binary", "/opt/hpcg/bin/xhpcg");
        ok.attr("outcome", "applied");
        clock.advance(5);
        let failed = tel.span_under(ok.context(), "client", format!("attempt-{}", 1));
        clock.advance(7);
        failed.fail("connect failed: \"refused\"");
        drop(ok);
        clock.advance(1);
        let trace = root.trace_id();
        drop(root);

        const EVENTS: [&str; 3] = [
            r#"{"trace":1,"span":3,"parent":2,"layer":"client","name":"attempt-1","start_us":7,"end_us":14,"outcome":"connect failed: \"refused\"","attrs":[]}"#,
            r#"{"trace":1,"span":2,"parent":1,"layer":"plugin","name":"job_submit","start_us":2,"end_us":14,"outcome":"ok","attrs":["binary=/opt/hpcg/bin/xhpcg","outcome=applied"]}"#,
            r#"{"trace":1,"span":1,"parent":null,"layer":"slurm","name":"sbatch","start_us":0,"end_us":15,"outcome":"ok","attrs":["user=alice"]}"#,
        ];
        const RENDERED: &str = "trace 00000001\n\
            └─ slurm/sbatch 15µs ok user=alice\n   \
            └─ plugin/job_submit 12µs ok binary=/opt/hpcg/bin/xhpcg outcome=applied\n      \
            └─ client/attempt-1 7µs connect failed: \"refused\"\n";
        const EXPORT: &str = r#"{
  "counters": [
    {
      "name": "slurm.sbatch",
      "value": 1
    }
  ],
  "gauges": [],
  "histograms": [],
  "events_dropped": 0,
  "events": [
    {
      "trace": 1,
      "span": 3,
      "parent": 2,
      "layer": "client",
      "name": "attempt-1",
      "start_us": 7,
      "end_us": 14,
      "outcome": "connect failed: \"refused\"",
      "attrs": []
    },
    {
      "trace": 1,
      "span": 2,
      "parent": 1,
      "layer": "plugin",
      "name": "job_submit",
      "start_us": 2,
      "end_us": 14,
      "outcome": "ok",
      "attrs": [
        "binary=/opt/hpcg/bin/xhpcg",
        "outcome=applied"
      ]
    },
    {
      "trace": 1,
      "span": 1,
      "parent": null,
      "layer": "slurm",
      "name": "sbatch",
      "start_us": 0,
      "end_us": 15,
      "outcome": "ok",
      "attrs": [
        "user=alice"
      ]
    }
  ]
}"#;
        let events = tel.recorder().events();
        assert_eq!(tel.export_json(), EXPORT);
        assert_eq!(render_trace(&events, trace), RENDERED);
        for (event, pinned) in events.iter().zip(EVENTS) {
            assert_eq!(serde_json::to_string(event).unwrap(), pinned);
            assert_eq!(&serde_json::from_str::<TraceEvent>(pinned).unwrap(), event);
        }
        // a literal is carried, not copied
        assert!(matches!(events[2].layer, Cow::Borrowed("slurm")));
        assert!(matches!(events[2].name, Cow::Borrowed("sbatch")));
        assert!(matches!(events[2].outcome, Cow::Borrowed("ok")));
    }

    #[test]
    fn render_trace_draws_the_tree() {
        let (clock, tel) = test_telemetry();
        let mut root = tel.root_span("slurm", "sbatch");
        root.attr("user", "alice");
        {
            let parse = root.child("slurm", "parse");
            clock.advance(2);
            drop(parse);
        }
        {
            let mut plugin = root.child("plugin", "job_submit");
            let predict = plugin.child("client", "attempt");
            clock.advance(3);
            drop(predict);
            plugin.set_error("daemon busy");
        }
        let trace = root.trace_id();
        drop(root);
        let text = render_trace(&tel.recorder().events(), trace);
        assert!(text.contains("slurm/sbatch"), "{text}");
        assert!(text.contains("├─ slurm/parse 2µs ok"), "{text}");
        assert!(text.contains("└─ plugin/job_submit"), "{text}");
        assert!(text.contains("daemon busy"), "{text}");
        assert!(text.contains("   └─ client/attempt 3µs ok"), "{text}");
        assert!(text.contains("user=alice"), "{text}");
    }
}
