//! Zero-cost-when-disabled telemetry for the Melody simulator.
//!
//! Three cooperating layers (see `TELEMETRY.md` at the repo root):
//!
//! 1. **Traces** — typed [`TraceEvent`]s timestamped in *simulated*
//!    picoseconds, collected lock-free into per-worker/per-cell ring
//!    buffers ([`TraceBuf`], drop-oldest with dropped-count accounting)
//!    and exported as Chrome `trace_event` JSON ([`chrome_trace`]) for
//!    Perfetto. Because events carry only sim-time, a fixed seed yields a
//!    byte-identical export at any `--jobs` setting: the harness captures
//!    each cell's buffer with [`capture`] and merges them in sweep order
//!    with [`sink_cell`].
//! 2. **Metrics** — a [`MetricsRegistry`] of named counters, log-scaled
//!    latency histograms (reusing [`melody_stats::LatencyHistogram`]) and
//!    sim-time cadence-sampled gauges; merges are commutative and
//!    associative so aggregation order never shows in output.
//! 3. **Profiling** — wall-clock [`span`]s with nested self/total
//!    attribution ([`Profile`]), kept out of trace exports and JSON
//!    because host time is nondeterministic; the harness prints them to
//!    stderr.
//!
//! The whole subsystem is gated on one global [`Mode`] byte, which a
//! thread may raise for itself alone ([`with_thread_mode`]): when
//! [`Mode::Off`] (the default), every hook is a relaxed atomic load, a
//! thread-local load and a branch, benchmarked at <1% simulator
//! overhead, and output is byte-identical to a build without the hooks.

#![warn(missing_docs)]

mod chrome;
mod event;
mod export;
mod metrics;
pub mod prom;
mod span;

pub use chrome::chrome_trace;
pub use event::{EventKind, TraceBuf, TraceEvent};
pub use export::{GaugeExport, GaugePoint, HistSummary, TelemetryExport};
pub use metrics::{GaugeSeries, GaugeWindow, MetricsRegistry};
pub use span::{Profile, SpanStack, SpanStat};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Telemetry collection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Mode {
    /// Nothing is collected; hooks cost one relaxed load (default).
    Off = 0,
    /// Counters, histograms, gauges, and wall-clock spans.
    Metrics = 1,
    /// Metrics plus the full trace-event stream.
    Trace = 2,
}

impl Mode {
    /// Parses a `--telemetry` flag value.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "off" => Some(Mode::Off),
            "metrics" => Some(Mode::Metrics),
            "trace" => Some(Mode::Trace),
            _ => None,
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(0);
/// Per-cell / per-thread trace ring capacity, in events.
static TRACE_CAP: AtomicUsize = AtomicUsize::new(1 << 18);
/// Gauge window width, simulated picoseconds.
static CADENCE_PS: AtomicU64 = AtomicU64::new(10_000_000);

/// Sets the global collection level.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The level in force on the calling thread: the global level, raised
/// by [`with_thread_mode`] while it runs.
#[inline]
fn level() -> u8 {
    MODE.load(Ordering::Relaxed).max(FORCED.with(Cell::get))
}

/// Current collection level on the calling thread.
#[inline]
pub fn mode() -> Mode {
    match level() {
        0 => Mode::Off,
        1 => Mode::Metrics,
        _ => Mode::Trace,
    }
}

/// True when metrics (and spans) are being collected.
#[inline]
pub fn metrics_on() -> bool {
    level() != 0
}

/// True when trace events are being collected.
#[inline]
pub fn trace_on() -> bool {
    level() >= Mode::Trace as u8
}

/// Runs `f` with collection at `mode` or above on the calling thread
/// only, then restores the thread's previous level (also if `f`
/// panics). The global level ([`set_mode`]) is never written, so
/// concurrent callers on other threads cannot undo each other; work `f`
/// hands to other threads runs at their own level.
pub fn with_thread_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
    struct Reset(u8);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(FORCED.with(|c| c.replace(c.get().max(mode as u8))));
    f()
}

/// Sets the per-cell trace ring capacity (events); applies to rings
/// created after the call.
pub fn set_trace_capacity(events: usize) {
    TRACE_CAP.store(events.max(1), Ordering::Relaxed);
}

/// Sets the gauge sampling window width in simulated nanoseconds.
pub fn set_cadence_ns(ns: u64) {
    CADENCE_PS.store(ns.max(1).saturating_mul(1_000), Ordering::Relaxed);
}

/// Current gauge/window cadence in simulated nanoseconds.
///
/// Consumers that window derived analyses on the telemetry cadence (the
/// insight layer's counter snapshots, the anomaly detector) read it from
/// here so one `--cadence-ns` flag governs every windowed view.
#[inline]
pub fn cadence_ns() -> u64 {
    (CADENCE_PS.load(Ordering::Relaxed) / 1_000).max(1)
}

/// Everything one thread (or one captured cell) has collected.
struct Local {
    trace: TraceBuf,
    metrics: MetricsRegistry,
    spans: SpanStack,
}

impl Default for Local {
    fn default() -> Self {
        Self {
            trace: TraceBuf::with_capacity(TRACE_CAP.load(Ordering::Relaxed)),
            metrics: MetricsRegistry::default(),
            spans: SpanStack::default(),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
    /// The level [`with_thread_mode`] forces on this thread (0: none).
    static FORCED: Cell<u8> = const { Cell::new(0) };
}

/// Records a trace event (no-op unless [`trace_on`]).
#[inline]
pub fn emit(kind: EventKind, ts_ps: u64, dur_ps: u64, a: u64, b: u64) {
    if !trace_on() {
        return;
    }
    LOCAL.with(|l| {
        l.borrow_mut().trace.push(TraceEvent {
            ts_ps,
            dur_ps,
            kind,
            a,
            b,
        })
    });
}

/// Adds `n` to counter `name` (no-op unless [`metrics_on`]).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !metrics_on() {
        return;
    }
    LOCAL.with(|l| l.borrow_mut().metrics.count(name, n));
}

/// Records `value` into histogram `name` (no-op unless [`metrics_on`]).
#[inline]
pub fn record_ns(name: &'static str, value: u64) {
    if !metrics_on() {
        return;
    }
    LOCAL.with(|l| l.borrow_mut().metrics.record(name, value));
}

/// Samples gauge `name` at sim-time `ts_ps` (no-op unless [`metrics_on`]).
#[inline]
pub fn gauge(name: &'static str, ts_ps: u64, value: f64) {
    if !metrics_on() {
        return;
    }
    let cadence = CADENCE_PS.load(Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().metrics.gauge(name, cadence, ts_ps, value));
}

/// RAII guard for a wall-clock profiling span; see [`span`].
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    /// Expected stack depth; 0 marks a disabled (no-op) guard.
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth != 0 {
            LOCAL.with(|l| l.borrow_mut().spans.exit(self.depth));
        }
    }
}

/// Opens a wall-clock profiling span; time is attributed to `name` until
/// the returned guard drops (no-op when telemetry is [`Mode::Off`]).
pub fn span(name: &'static str) -> SpanGuard {
    if !metrics_on() {
        return SpanGuard { depth: 0 };
    }
    let depth = LOCAL.with(|l| l.borrow_mut().spans.enter(name));
    SpanGuard { depth }
}

/// Telemetry captured from one experiment cell by [`capture`].
#[derive(Default)]
pub struct CellTelemetry {
    trace: TraceBuf,
    metrics: MetricsRegistry,
    profile: Profile,
}

impl Default for TraceBuf {
    fn default() -> Self {
        TraceBuf::with_capacity(TRACE_CAP.load(Ordering::Relaxed))
    }
}

impl CellTelemetry {
    /// True when the cell collected nothing.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
            && self.trace.dropped() == 0
            && self.metrics.is_empty()
            && self.profile.is_empty()
    }

    /// The cell's trace events, oldest first.
    pub fn trace_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.trace.iter()
    }

    /// Events this cell lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// The cell's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Decomposes into `(trace events, dropped count, metrics)`, consuming
    /// the cell. The insight layer uses this to analyse one run's events
    /// without routing them through the global sink.
    pub fn into_parts(self) -> (Vec<TraceEvent>, u64, MetricsRegistry) {
        let dropped = self.trace.dropped();
        let events: Vec<TraceEvent> = self.trace.iter().copied().collect();
        (events, dropped, self.metrics)
    }
}

/// Restores a saved thread-local context even if the captured closure
/// panics (the panicking cell's telemetry is discarded).
struct Restore {
    saved: Option<Local>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            LOCAL.with(|l| *l.borrow_mut() = saved);
        }
    }
}

/// Runs `f` with a fresh thread-local telemetry context and returns what
/// it collected alongside its result.
///
/// The harness wraps every experiment cell in this — on the serial path
/// and on every worker thread alike — then hands the captured buffers to
/// [`sink_cell`] *in sweep order*, which is what makes trace exports
/// independent of `--jobs`. When telemetry is off this is a bare call to
/// `f` with no thread-local access.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, CellTelemetry) {
    if mode() == Mode::Off {
        return (f(), CellTelemetry::default());
    }
    let saved = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    let restore = Restore { saved: Some(saved) };
    let r = f();
    let cell = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    drop(restore);
    (
        r,
        CellTelemetry {
            trace: cell.trace,
            metrics: cell.metrics,
            profile: cell.spans.profile,
        },
    )
}

/// The global sink per-cell telemetry merges into.
#[derive(Default)]
struct Sink {
    events: Vec<(u32, TraceEvent)>,
    dropped: u64,
    metrics: MetricsRegistry,
    profile: Profile,
    next_tid: u32,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            next_tid: 1,
            ..Sink::default()
        })
    })
}

/// Merges one cell's captured telemetry into the global sink, assigning
/// it the next trace track id.
///
/// Call order defines track ids and event order, so callers must sink
/// cells in sweep order (the harness does, after joining its workers).
pub fn sink_cell(cell: CellTelemetry) {
    if cell.is_empty() {
        return;
    }
    let mut s = sink().lock().expect("telemetry sink lock");
    let tid = s.next_tid;
    s.next_tid += 1;
    s.dropped += cell.trace.dropped();
    for e in cell.trace.iter() {
        s.events.push((tid, *e));
    }
    s.metrics.merge(&cell.metrics);
    s.profile.merge(&cell.profile);
}

/// Everything collected since the last [`collect`] / [`reset`].
#[derive(Default)]
pub struct Collected {
    /// Trace events as `(track id, event)`, main thread first (tid 0),
    /// then cells in sink order.
    pub events: Vec<(u32, TraceEvent)>,
    /// Events lost to ring overflow, across all tracks.
    pub dropped: u64,
    /// Merged metrics registry.
    pub metrics: MetricsRegistry,
    /// Merged wall-clock profile.
    pub profile: Profile,
}

impl Collected {
    /// Renders the trace as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events, self.dropped)
    }
}

/// Drains the calling thread's context and the global sink.
///
/// Main-thread events come first under tid 0 (experiments that never go
/// through the cell harness live there), then sunk cells under tids
/// `1..` in sink order. The sink resets for the next run.
pub fn collect() -> Collected {
    let main = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    let mut s = sink().lock().expect("telemetry sink lock");
    let mut events: Vec<(u32, TraceEvent)> = main.trace.iter().map(|e| (0u32, *e)).collect();
    events.append(&mut s.events);
    let dropped = main.trace.dropped() + s.dropped;
    let mut metrics = std::mem::take(&mut s.metrics);
    metrics.merge(&main.metrics);
    let mut profile = std::mem::take(&mut s.profile);
    profile.merge(&main.spans.profile);
    s.dropped = 0;
    s.next_tid = 1;
    Collected {
        events,
        dropped,
        metrics,
        profile,
    }
}

/// Runs `f` against the global sink's merged metrics registry without
/// draining it — a read-only peek for live scrapes (`GET /metrics`).
///
/// Only sunk cells are visible; the calling thread's local context is
/// not included (a scraping thread has none anyway). The sink lock is
/// held for the duration of `f`, so keep it short.
pub fn with_sink_metrics<R>(f: impl FnOnce(&MetricsRegistry) -> R) -> R {
    let s = sink().lock().expect("telemetry sink lock");
    f(&s.metrics)
}

/// Clears the calling thread's context and the global sink without
/// returning anything (test isolation helper).
pub fn reset() {
    let _ = collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mode is process-global; this file's tests serialize on one lock.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn off_mode_collects_nothing() {
        let _g = GATE.lock().unwrap();
        set_mode(Mode::Off);
        reset();
        emit(EventKind::DemandRead, 1, 2, 3, 4);
        count("c", 1);
        record_ns("h", 10);
        gauge("g", 0, 1.0);
        let _s = span("s");
        let c = collect();
        assert!(c.events.is_empty());
        assert!(c.metrics.is_empty());
        assert!(c.profile.is_empty());
    }

    #[test]
    fn capture_isolates_and_sink_orders_cells() {
        let _g = GATE.lock().unwrap();
        set_mode(Mode::Trace);
        reset();
        emit(EventKind::CellStart, 0, 0, 99, 0); // main-thread event
        let mut cells = Vec::new();
        for i in 0..3u64 {
            let ((), cell) = capture(|| emit(EventKind::DemandRead, i, 0, i, 0));
            cells.push(cell);
        }
        for c in cells {
            sink_cell(c);
        }
        let c = collect();
        set_mode(Mode::Off);
        let got: Vec<(u32, u64)> = c.events.iter().map(|(t, e)| (*t, e.ts_ps)).collect();
        assert_eq!(got, vec![(0, 0), (1, 0), (2, 1), (3, 2)]);
    }

    #[test]
    fn thread_mode_is_local_to_its_thread_and_restored() {
        let _g = GATE.lock().unwrap();
        set_mode(Mode::Off);
        let inner = with_thread_mode(Mode::Trace, || {
            let other = std::thread::spawn(mode).join().unwrap();
            (mode(), other)
        });
        assert_eq!(inner, (Mode::Trace, Mode::Off));
        assert_eq!(mode(), Mode::Off);
        let r =
            std::panic::catch_unwind(|| with_thread_mode(Mode::Metrics, || panic!("cell died")));
        assert!(r.is_err());
        assert_eq!(mode(), Mode::Off, "restored on unwind");
    }

    #[test]
    fn capture_restores_context_on_panic() {
        let _g = GATE.lock().unwrap();
        set_mode(Mode::Trace);
        reset();
        emit(EventKind::CellStart, 7, 0, 0, 0);
        let r = std::panic::catch_unwind(|| {
            capture(|| {
                emit(EventKind::DemandRead, 1, 0, 0, 0);
                panic!("cell died");
            })
        });
        assert!(r.is_err());
        let c = collect();
        set_mode(Mode::Off);
        // The pre-capture main-thread event survives; the dead cell's is gone.
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.events[0].1.ts_ps, 7);
    }
}
