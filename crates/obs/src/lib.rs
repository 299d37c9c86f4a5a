//! # obs — deterministic observability for the simulated protocol stack
//!
//! A dependency-free tracing + metrics layer shared by every crate in the
//! workspace. Three pieces:
//!
//! * a **metrics registry** — counters, gauges and fixed-bucket histograms,
//!   all backed by `BTreeMap` so iteration (and therefore every exporter)
//!   is deterministic;
//! * a **flight recorder** — a bounded ring buffer of structured trace
//!   events and spans, stamped with *sim-time* and a monotonically
//!   increasing sequence number, dumpable on any failure or checkpoint;
//! * **exporters** — a JSONL event log and a Prometheus-style text
//!   snapshot, plus a [`TraceQuery`] API so tests can assert on spans
//!   ("p99 HELLO latency under burst loss") instead of only end-state.
//!
//! ## Sim-time stamping rule
//!
//! Events are stamped with the timestamp last supplied via [`set_now`] —
//! the `netsim` engine calls it with the scheduler's virtual clock before
//! dispatching each event. **Wall-clock sources are banned in this crate**
//! (detlint rule R1 applies with no annotation escape hatch under
//! `crates/obs/`), so a trace export is a pure function of the simulation
//! seed and is byte-identical across runs.
//!
//! ## Observer-effect guarantee
//!
//! Instrumentation call sites are free functions ([`counter_add`],
//! [`observe_ms`], [`event`], …) that no-op unless a [`Recorder`] is
//! installed for the current thread. They never touch the simulation's
//! RNG, never schedule events, and never feed back into protocol logic,
//! so enabling or disabling observability cannot change a crawl's
//! `DataStore` by construction.
//!
//! ```
//! let rec = obs::Recorder::new();
//! rec.install();
//! obs::set_now(42);
//! obs::counter_add("demo.hits", 1);
//! obs::event("demo.fired", &[("value", obs::Value::U64(7))]);
//! obs::uninstall();
//! assert_eq!(rec.counter("demo.hits"), 1);
//! assert!(rec.export_jsonl().contains("\"ts\":42"));
//! ```

#![forbid(unsafe_code)]

mod metrics;
pub mod profile;
mod query;
pub mod snap;
mod trace;

pub use metrics::Histogram;
use metrics::MetricsRegistry;
pub use query::TraceQuery;
use trace::FlightRecorder;
pub use trace::{EventKind, TraceEvent, Value};

use snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::rc::Rc;

/// Magic prefixing a recorder snapshot.
pub const OBS_SNAP_MAGIC: [u8; 4] = *b"OBSS";

/// Current recorder snapshot format version.
pub const OBS_SNAP_VERSION: u8 = 1;

/// Default flight-recorder capacity (events retained before dropping).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// An interned metric name, obtained from [`handle`]. Adding to a counter
/// or raising a high-water gauge through an id is a plain vector index —
/// no string allocation, no tree lookup — which matters at per-event call
/// sites inside the simulator's hot loop.
///
/// Ids are thread-local and live for the life of the thread, so a handle
/// interned once (e.g. at engine construction) stays valid across
/// [`Recorder`] install/uninstall/clear cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId(u32);

#[derive(Default)]
struct Intern {
    names: Vec<&'static str>,
    index: std::collections::BTreeMap<&'static str, u32>,
}

thread_local! {
    static INTERN: RefCell<Intern> = RefCell::new(Intern::default());
}

/// Intern a metric name, returning a copyable id for the `*_id` fast-path
/// functions ([`counter_add_id`], [`gauge_max_id`]). Interning the same
/// name twice returns the same id. Works whether or not a recorder is
/// installed.
pub fn handle(name: &'static str) -> MetricId {
    INTERN.with(|i| {
        let mut i = i.borrow_mut();
        if let Some(&id) = i.index.get(name) {
            return MetricId(id);
        }
        let id = u32::try_from(i.names.len()).expect("metric id space exhausted");
        i.names.push(name);
        i.index.insert(name, id);
        MetricId(id)
    })
}

fn interned_name(id: u32) -> &'static str {
    INTERN.with(|i| i.borrow().names[id as usize])
}

struct Core {
    now_ms: u64,
    /// Provenance of the dispatch currently executing, as last supplied
    /// via [`set_cause`]: (scheduler key, causing key, chain depth).
    /// All-zero outside any dispatch.
    cur_key: u64,
    cur_cause: u64,
    cur_depth: u32,
    /// Whether the current dispatch has recorded at least one trace
    /// event. The engine consults this when minting child provenance so
    /// `cause` always names a key that appears in the trace — chains are
    /// resolvable from the JSONL export alone, with no side table.
    cur_emitted: bool,
    seq: u64,
    metrics: MetricsRegistry,
    ring: FlightRecorder,
    /// Pending deltas for id-addressed counters, folded into `metrics`
    /// (by interned name) whenever the registry is read or exported, so
    /// string- and id-addressed updates to the same name are
    /// indistinguishable from the outside.
    fast_counters: Vec<u64>,
    /// Pending high-water marks for id-addressed gauges, folded in the
    /// same way via `gauge_max` semantics.
    fast_gauge_hw: Vec<u64>,
}

impl Core {
    fn new(capacity: usize) -> Self {
        Core {
            now_ms: 0,
            cur_key: 0,
            cur_cause: 0,
            cur_depth: 0,
            cur_emitted: false,
            seq: 0,
            metrics: MetricsRegistry::default(),
            ring: FlightRecorder::new(capacity),
            fast_counters: Vec::new(),
            fast_gauge_hw: Vec::new(),
        }
    }

    // Interned-metric slot lookup behind every *_id call.
    fn fast_slot(v: &mut Vec<u64>, id: MetricId) -> &mut u64 {
        let i = id.0 as usize;
        if i >= v.len() {
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    /// Fold pending id-addressed updates into the named registry. A
    /// pending value of zero is a no-op (a zero counter delta is
    /// invisible, and `gauge_max(_, 0)` cannot lower anything), so only
    /// touched ids ever materialize a named entry — exports stay
    /// byte-identical to the string-addressed equivalent.
    fn flush_fast(&mut self) {
        let mut counters = std::mem::take(&mut self.fast_counters);
        for (i, v) in counters.iter_mut().enumerate() {
            if *v != 0 {
                self.metrics.counter_add(interned_name(i as u32), *v);
                *v = 0;
            }
        }
        self.fast_counters = counters;
        let mut gauges = std::mem::take(&mut self.fast_gauge_hw);
        for (i, v) in gauges.iter_mut().enumerate() {
            if *v != 0 {
                self.metrics.gauge_max(interned_name(i as u32), *v);
                *v = 0;
            }
        }
        self.fast_gauge_hw = gauges;
    }

    fn record(&mut self, kind: EventKind, name: &str, fields: &[(&str, Value)]) {
        self.cur_emitted = true;
        let ev = TraceEvent {
            seq: self.seq,
            ts_ms: self.now_ms,
            key: self.cur_key,
            cause: self.cur_cause,
            depth: self.cur_depth,
            kind,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        };
        self.seq += 1;
        self.ring.push(ev);
    }
}

/// Handle to an observability session. Cloning is cheap (shared core).
///
/// A `Recorder` is thread-local by design: the simulation is
/// single-threaded, and per-thread installation keeps parallel test
/// threads fully isolated from each other. When behavioural hosts inside
/// a world also emit metrics (every simulated node runs discv4, RLPx,
/// …), those aggregate into the same recorder as the crawler's — the
/// recorder observes the *world*, not one host.
#[derive(Clone)]
pub struct Recorder {
    core: Rc<RefCell<Core>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.borrow();
        f.debug_struct("Recorder")
            .field("now_ms", &core.now_ms)
            .field("seq", &core.seq)
            .field("ring_len", &core.ring.len())
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// New recorder with the default flight-recorder capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// New recorder retaining at most `capacity` trace events.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            core: Rc::new(RefCell::new(Core::new(capacity))),
        }
    }

    /// Install this recorder for the current thread. Subsequent calls to
    /// the free functions ([`counter_add`], [`event`], …) feed it.
    /// Replaces any previously installed recorder.
    pub fn install(&self) {
        RECORDER.with(|r| *r.borrow_mut() = Some(self.clone()));
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let mut core = self.core.borrow_mut();
        core.flush_fast();
        core.metrics.counter(name)
    }

    /// Current value of a gauge (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        let mut core = self.core.borrow_mut();
        core.flush_fast();
        core.metrics.gauge(name)
    }

    /// Snapshot of a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.core.borrow().metrics.histogram(name).cloned()
    }

    /// Number of trace events evicted from the ring so far.
    pub fn dropped_events(&self) -> u64 {
        self.core.borrow().ring.dropped()
    }

    /// Ring evictions attributed per event name, sorted by name — the
    /// flight recorder's answer to "what did the overflow lose?".
    pub fn dropped_by_kind(&self) -> Vec<(String, u64)> {
        self.core
            .borrow()
            .ring
            .dropped_by_kind()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Number of trace events currently retained.
    pub fn event_count(&self) -> usize {
        self.core.borrow().ring.len()
    }

    /// Export every retained trace event as JSON Lines (one event per
    /// line, oldest first). Byte-identical across same-seed runs.
    pub fn export_jsonl(&self) -> String {
        let core = self.core.borrow();
        let mut out = String::new();
        for ev in core.ring.iter() {
            ev.write_jsonl_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Export the metrics registry as a Prometheus-style text snapshot.
    pub fn prometheus(&self) -> String {
        let mut core = self.core.borrow_mut();
        core.flush_fast();
        core.metrics.render_prometheus()
    }

    /// Query API over the retained trace events.
    pub fn query(&self) -> TraceQuery {
        TraceQuery::new(self.core.borrow().ring.iter().cloned().collect())
    }

    /// Serialize the recorder's dynamic state — the observability clock,
    /// the event sequence counter, the folded metrics registry, every
    /// retained trace event (sequence numbers and provenance included)
    /// and the eviction counters, total and per kind — into a versioned
    /// `OBSS` snapshot. Pending fast-path updates are folded first (the
    /// same merge every exporter applies), so the image equals what an
    /// export taken at the same instant would see. Interned `MetricId`s
    /// are thread-lifetime and not captured. Call between runs, never
    /// mid-dispatch.
    pub fn snapshot_state(&self) -> Vec<u8> {
        let mut core = self.core.borrow_mut();
        core.flush_fast();
        let mut w = SnapWriter::with_header(OBS_SNAP_MAGIC, OBS_SNAP_VERSION);
        core.now_ms.snap(&mut w);
        core.seq.snap(&mut w);
        core.metrics.snap(&mut w);
        core.ring.snap(&mut w);
        w.finish()
    }

    /// Restore state captured by [`Recorder::snapshot_state`],
    /// overwriting this recorder's metrics, ring contents, drop
    /// counters, sequence counter, and clock. The ring keeps its
    /// configured capacity; a snapshot retaining more events than this
    /// recorder can hold is rejected, as is any other malformed image,
    /// leaving the recorder untouched.
    pub fn restore_state(&self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, OBS_SNAP_MAGIC, OBS_SNAP_VERSION)?;
        let mut core = self.core.borrow_mut();
        let now_ms = r.u64()?;
        let seq = r.u64()?;
        let metrics = Snap::unsnap(&mut r)?;
        let ring = FlightRecorder::restore(&mut r, core.ring.capacity())?;
        r.finish()?;
        core.now_ms = now_ms;
        core.seq = seq;
        core.metrics = metrics;
        core.ring = ring;
        core.fast_counters.fill(0);
        core.fast_gauge_hw.fill(0);
        core.cur_key = 0;
        core.cur_cause = 0;
        core.cur_depth = 0;
        core.cur_emitted = false;
        Ok(())
    }

    /// Drop all retained events and metrics (capacity is kept).
    pub fn clear(&self) {
        let mut core = self.core.borrow_mut();
        core.metrics = MetricsRegistry::default();
        core.fast_counters.fill(0);
        core.fast_gauge_hw.fill(0);
        core.ring.clear();
        core.seq = 0;
        core.now_ms = 0;
        core.cur_key = 0;
        core.cur_cause = 0;
        core.cur_depth = 0;
        core.cur_emitted = false;
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Remove the current thread's recorder, if any. Returns it so callers
/// can still export after tearing down instrumentation.
pub fn uninstall() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// True if a recorder is installed on this thread. Use to skip
/// *expensive* label construction (e.g. `format!`) at call sites; the
/// plain free functions already no-op when disabled.
pub fn is_enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

fn with_core<F: FnOnce(&mut Core)>(f: F) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            f(&mut rec.core.borrow_mut());
        }
    });
}

/// Advance the observability clock to simulation time `now_ms`. Called
/// by the `netsim` engine before dispatching each scheduled event; all
/// subsequently recorded events and spans are stamped with this value.
pub fn set_now(now_ms: u64) {
    with_core(|c| c.now_ms = now_ms);
}

/// Set the causal provenance stamped onto subsequently recorded trace
/// events: `key` is the scheduler key of the dispatch about to run,
/// `cause` the key of the dispatch that scheduled it, `depth` the
/// happens-before chain length from an external root. The `netsim`
/// engine calls this alongside [`set_now`] before every dispatch and
/// resets it to `(0, 0, 0)` afterwards, so events emitted outside any
/// dispatch carry no (all-zero) provenance.
pub fn set_cause(key: u64, cause: u64, depth: u32) {
    with_core(|c| {
        c.cur_key = key;
        c.cur_cause = cause;
        c.cur_depth = depth;
        c.cur_emitted = false;
    });
}

/// Whether the dispatch currently executing has recorded at least one
/// trace event (always `false` with no recorder installed). The engine
/// uses this to mint child provenance that skips silent dispatches: a
/// queued event's `cause` is the nearest *traced* ancestor, so every
/// chain link resolves within the exported trace itself.
// Consulted by the engine on every event push.
pub fn dispatch_emitted() -> bool {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .is_some_and(|rec| rec.core.borrow().cur_emitted)
    })
}

/// Add `v` to the counter `name` (created at 0 on first use).
pub fn counter_add(name: &str, v: u64) {
    with_core(|c| c.metrics.counter_add(name, v));
}

/// Add `v` to the counter behind an interned [`handle`]. Equivalent to
/// [`counter_add`] with the interned name, but O(1) with no allocation —
/// intended for per-event hot paths like the simulator's dispatch loop.
pub fn counter_add_id(id: MetricId, v: u64) {
    with_core(|c| *Core::fast_slot(&mut c.fast_counters, id) += v);
}

/// Raise the gauge behind an interned [`handle`] to `v` if `v` is larger
/// (high-water mark). Equivalent to [`gauge_max`] with the interned name,
/// except that a value of 0 leaves the gauge uncreated (a 0 high-water
/// update is indistinguishable from no update anyway).
// Per-event high-water update; must stay allocation-free.
pub fn gauge_max_id(id: MetricId, v: u64) {
    with_core(|c| {
        let slot = Core::fast_slot(&mut c.fast_gauge_hw, id);
        *slot = (*slot).max(v);
    });
}

/// Set the gauge `name` to `v`.
pub fn gauge_set(name: &str, v: u64) {
    with_core(|c| c.metrics.gauge_set(name, v));
}

/// Raise the gauge `name` to `v` if `v` is larger (high-water mark).
pub fn gauge_max(name: &str, v: u64) {
    with_core(|c| c.metrics.gauge_max(name, v));
}

/// Record `v` (milliseconds) into the fixed-bucket latency histogram
/// `name` (created with `DEFAULT_LATENCY_BOUNDS_MS` on first use).
pub fn observe_ms(name: &str, v: u64) {
    with_core(|c| c.metrics.observe(name, v));
}

/// Record a point-in-time trace event stamped with the current sim time.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    with_core(|c| c.record(EventKind::Event, name, fields));
}

/// Record a completed span: `start_ms` is when the spanned work began
/// (sim time); the event is stamped with the current sim time, so its
/// duration is `ts - start`. Also feeds the histogram `name` with the
/// duration, so spans show up in the Prometheus snapshot for free.
pub fn span(name: &str, start_ms: u64, fields: &[(&str, Value)]) {
    with_core(|c| {
        let dur = c.now_ms.saturating_sub(start_ms);
        c.metrics.observe(name, dur);
        c.record(EventKind::Span { start_ms }, name, fields);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_noop_without_recorder() {
        uninstall();
        // Must not panic or accumulate anywhere.
        set_now(5);
        counter_add("x", 1);
        gauge_set("g", 2);
        observe_ms("h", 3);
        event("e", &[]);
        span("s", 0, &[]);
        assert!(!is_enabled());
    }

    #[test]
    fn recorder_collects_and_uninstall_stops() {
        let rec = Recorder::new();
        rec.install();
        assert!(is_enabled());
        set_now(10);
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", 7);
        gauge_max("g", 4); // lower: no change
        gauge_max("g", 9);
        event("hello", &[("peer", Value::Str("n1".into()))]);
        set_now(25);
        span("stage", 10, &[]);
        uninstall();
        counter_add("c", 100); // after uninstall: ignored

        assert_eq!(rec.counter("c"), 5);
        assert_eq!(rec.gauge("g"), 9);
        assert_eq!(rec.event_count(), 2);
        let q = rec.query();
        assert_eq!(q.count("hello"), 1);
        assert_eq!(q.span_durations("stage"), vec![15]);
    }

    #[test]
    fn handle_interning_is_stable() {
        let a = handle("intern.same");
        let b = handle("intern.same");
        let c = handle("intern.other");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn interned_and_named_updates_merge() {
        let rec = Recorder::new();
        rec.install();
        let id = handle("merge.counter");
        counter_add("merge.counter", 2);
        counter_add_id(id, 3);
        counter_add_id(id, 5);
        let hw = handle("merge.peak");
        gauge_max("merge.peak", 4);
        gauge_max_id(hw, 9);
        gauge_max_id(hw, 6); // lower: no change
        uninstall();
        assert_eq!(rec.counter("merge.counter"), 10);
        assert_eq!(rec.gauge("merge.peak"), 9);
        // The export renders the merged values under the plain names —
        // byte-identical to a purely string-addressed run.
        let text = rec.prometheus();
        assert!(text.contains("merge_counter 10\n"), "{text}");
        assert!(text.contains("merge_peak 9\n"), "{text}");
    }

    #[test]
    fn interned_updates_noop_without_recorder() {
        uninstall();
        let id = handle("noop.counter");
        counter_add_id(id, 1);
        gauge_max_id(id, 1);
        assert!(!is_enabled());
    }

    #[test]
    fn jsonl_export_is_stable_and_stamped() {
        let rec = Recorder::new();
        rec.install();
        set_now(42);
        event(
            "a",
            &[("k", Value::U64(1)), ("s", Value::Str("x\"y".into()))],
        );
        set_now(50);
        span("b", 42, &[("ok", Value::Bool(true))]);
        uninstall();
        let out = rec.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"seq":0,"ts":42,"key":0,"cause":0,"depth":0,"type":"event","name":"a","fields":{"k":1,"s":"x\"y"}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":1,"ts":50,"key":0,"cause":0,"depth":0,"type":"span","name":"b","start":42,"dur":8,"fields":{"ok":true}}"#
        );
    }

    #[test]
    fn set_cause_stamps_provenance_until_reset() {
        let rec = Recorder::new();
        rec.install();
        set_now(10);
        set_cause(7, 3, 2);
        event("in.dispatch", &[]);
        span("in.dispatch.span", 5, &[]);
        set_cause(0, 0, 0);
        event("outside", &[]);
        uninstall();
        let q = rec.query();
        let ev = q.first("in.dispatch").unwrap();
        assert_eq!((ev.key, ev.cause, ev.depth), (7, 3, 2));
        let sp = q.first("in.dispatch.span").unwrap();
        assert_eq!((sp.key, sp.cause, sp.depth), (7, 3, 2));
        let out = q.first("outside").unwrap();
        assert_eq!((out.key, out.cause, out.depth), (0, 0, 0));
        let jsonl = rec.export_jsonl();
        assert!(jsonl.contains(r#""key":7,"cause":3,"depth":2"#), "{jsonl}");
    }

    #[test]
    fn clear_resets_everything() {
        let rec = Recorder::new();
        rec.install();
        set_now(1);
        counter_add("c", 1);
        event("e", &[]);
        uninstall();
        rec.clear();
        assert_eq!(rec.counter("c"), 0);
        assert_eq!(rec.event_count(), 0);
        assert_eq!(rec.export_jsonl(), "");
    }

    #[test]
    fn snapshot_state_round_trips_exports() {
        let rec = Recorder::with_capacity(4);
        rec.install();
        let id = handle("snap.fast");
        for i in 0..7u64 {
            set_now(i * 10);
            set_cause(i + 1, i, i as u32);
            event("tick", &[("i", Value::U64(i))]);
            counter_add("snap.counter", 1);
            counter_add_id(id, 2);
            gauge_max("snap.peak", i);
            observe_ms("snap.lat", i * 3);
        }
        set_cause(0, 0, 0);
        uninstall();

        let image = rec.snapshot_state();
        // Restore into a fresh recorder with the same capacity: every
        // export must be byte-identical, including drop attribution.
        let restored = Recorder::with_capacity(4);
        restored.restore_state(&image).unwrap();
        assert_eq!(restored.export_jsonl(), rec.export_jsonl());
        assert_eq!(restored.prometheus(), rec.prometheus());
        assert_eq!(restored.dropped_events(), rec.dropped_events());
        assert_eq!(restored.dropped_by_kind(), rec.dropped_by_kind());
        // And the restored recorder keeps recording with the same seq
        // stream: snapshots of both after one more event still agree.
        for r in [&rec, &restored] {
            r.install();
            set_now(100);
            event("after", &[]);
            uninstall();
        }
        assert_eq!(restored.snapshot_state(), rec.snapshot_state());

        // A shell with a smaller ring cannot hold the image.
        let tiny = Recorder::with_capacity(2);
        assert!(tiny.restore_state(&image).is_err());
        // Corrupt input is rejected, not panicked on.
        assert!(restored.restore_state(&image[..10]).is_err());
        assert!(restored.restore_state(b"XXXXX").is_err());
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let rec = Recorder::with_capacity(4);
        rec.install();
        for i in 0..10u64 {
            set_now(i);
            event("tick", &[("i", Value::U64(i))]);
        }
        uninstall();
        assert_eq!(rec.dropped_events(), 6);
        assert_eq!(rec.event_count(), 4);
        let export = rec.export_jsonl();
        let kept: Vec<&str> = export.lines().collect();
        assert_eq!(kept.len(), 4);
        assert!(kept[0].contains("\"i\":6"), "{}", kept[0]);
        assert!(kept[3].contains("\"i\":9"), "{}", kept[3]);
    }
}
