//! Structured trace events, the bounded ring-buffer flight recorder, and
//! the hand-rolled JSONL serializer (obs is dependency-free by design,
//! so it cannot use `serde_json`).

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::{snap_enum, snap_struct};
use std::collections::{BTreeMap, VecDeque};

/// A typed field value attached to a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    U64(u64),
    I64(i64),
    Str(String),
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => write_json_string(s, out),
        }
    }
}

/// Escape + quote `s` as a JSON string into `out`.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Point event or completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    Event,
    /// A completed span; the event's own `ts_ms` is the end time.
    Span {
        start_ms: u64,
    },
}

/// One entry in the flight recorder, stamped with sim-time (`ts_ms`, as
/// last supplied via [`crate::set_now`]) and a per-recorder sequence
/// number that breaks ties between events at the same sim instant.
///
/// The `key` / `cause` / `depth` triple is causal provenance, supplied by
/// the engine via [`crate::set_cause`] before each dispatch: `key` is the
/// scheduler key of the event being dispatched when this entry was
/// recorded, `cause` is the key of the nearest causal-ancestor dispatch
/// that itself recorded a trace event (silent dispatches are skipped, so
/// every chain link resolves within the trace), and `depth` is the number
/// of traced hops back to an external root (`cause = 0`, `depth = 0`).
/// Entries recorded outside any dispatch carry all-zero provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub ts_ms: u64,
    /// Scheduler key of the dispatch this entry was recorded under
    /// (0 = outside any dispatch).
    pub key: u64,
    /// Scheduler key of the nearest traced ancestor dispatch (0 =
    /// external root).
    pub cause: u64,
    /// Number of traced hops back to the external root.
    pub depth: u32,
    pub kind: EventKind,
    pub name: String,
    pub fields: Vec<(String, Value)>,
}

snap_enum!(Value { 0 => U64(v), 1 => I64(v), 2 => Str(s), 3 => Bool(b) });
snap_enum!(EventKind { 0 => Event, 1 => Span { start_ms } });
snap_struct!(TraceEvent {
    seq,
    ts_ms,
    key,
    cause,
    depth,
    kind,
    name,
    fields
});

impl TraceEvent {
    /// Duration for spans (`ts - start`), 0 for point events.
    pub fn duration_ms(&self) -> u64 {
        match self.kind {
            EventKind::Event => 0,
            EventKind::Span { start_ms } => self.ts_ms.saturating_sub(start_ms),
        }
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Append this event as a single JSONL line (no trailing newline).
    pub fn write_jsonl_line(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"seq\":{},\"ts\":{},\"key\":{},\"cause\":{},\"depth\":{},",
            self.seq, self.ts_ms, self.key, self.cause, self.depth
        ));
        match self.kind {
            EventKind::Event => {
                out.push_str("\"type\":\"event\",\"name\":");
                write_json_string(&self.name, out);
            }
            EventKind::Span { start_ms } => {
                out.push_str("\"type\":\"span\",\"name\":");
                write_json_string(&self.name, out);
                out.push_str(&format!(
                    ",\"start\":{},\"dur\":{}",
                    start_ms,
                    self.duration_ms()
                ));
            }
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push_str("}}");
    }

    /// One-line human rendering for flight-recorder dumps.
    pub fn render_human(&self) -> String {
        let mut line = match self.kind {
            EventKind::Event => format!("[{:>10}ms #{:<6}] {}", self.ts_ms, self.seq, self.name),
            EventKind::Span { start_ms } => format!(
                "[{:>10}ms #{:<6}] {} span {}ms (from {}ms)",
                self.ts_ms,
                self.seq,
                self.name,
                self.duration_ms(),
                start_ms
            ),
        };
        for (k, v) in &self.fields {
            match v {
                Value::U64(x) => line.push_str(&format!(" {k}={x}")),
                Value::I64(x) => line.push_str(&format!(" {k}={x}")),
                Value::Bool(x) => line.push_str(&format!(" {k}={x}")),
                Value::Str(s) => line.push_str(&format!(" {k}={s:?}")),
            }
        }
        if self.key != 0 {
            line.push_str(&format!(
                " key={} cause={} depth={}",
                self.key, self.cause, self.depth
            ));
        }
        line
    }
}

/// Bounded ring buffer of trace events: pushing beyond capacity evicts
/// the oldest entry and increments the drop counter, so the recorder's
/// memory use is O(capacity) no matter how long the simulation runs.
/// Evictions are attributed per event name (`dropped_by_kind`), so an
/// overflowing trace still says *what* it lost — a drop total alone
/// cannot distinguish "lost 10k heartbeats" from "lost the one span that
/// explains the failure".
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    dropped_by_kind: BTreeMap<String, u64>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            dropped: 0,
            dropped_by_kind: BTreeMap::new(),
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            if let Some(evicted) = self.buf.pop_front() {
                self.dropped += 1;
                *self.dropped_by_kind.entry(evicted.name).or_insert(0) += 1;
            }
        }
        self.buf.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evictions attributed per event name, sorted by name (BTreeMap
    /// iteration order — deterministic for exports).
    pub fn dropped_by_kind(&self) -> impl Iterator<Item = (&str, u64)> {
        self.dropped_by_kind.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Oldest-first iteration over retained events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
        self.dropped_by_kind.clear();
    }

    /// Append the retained events and the eviction counters to a
    /// snapshot (capacity is configuration, not state).
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.buf.snap(w);
        self.dropped.snap(w);
        self.dropped_by_kind.snap(w);
    }

    /// Rebuild a ring of `capacity` from [`Self::snap`] output. An image
    /// retaining more events than the ring can hold is rejected: a
    /// mismatched shell would silently re-drop events and skew the
    /// eviction counters.
    pub(crate) fn restore(
        r: &mut SnapReader<'_>,
        capacity: usize,
    ) -> Result<FlightRecorder, SnapError> {
        let ring = FlightRecorder {
            buf: Snap::unsnap(r)?,
            capacity,
            dropped: Snap::unsnap(r)?,
            dropped_by_kind: Snap::unsnap(r)?,
        };
        if ring.buf.len() > capacity {
            return Err(SnapError::Corrupt(
                "snapshot retains more events than the ring capacity",
            ));
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TraceEvent {
        named_ev(seq, format!("e{seq}"))
    }

    fn named_ev(seq: u64, name: String) -> TraceEvent {
        TraceEvent {
            seq,
            ts_ms: seq * 10,
            key: 0,
            cause: 0,
            depth: 0,
            kind: EventKind::Event,
            name,
            fields: Vec::new(),
        }
    }

    #[test]
    fn ring_wraparound_and_drop_counting() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..5 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]); // oldest evicted first
        ring.clear();
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.dropped_by_kind().count(), 0);
    }

    #[test]
    fn drops_are_attributed_per_kind() {
        // Overflow a 2-slot ring with a skewed name mix: the per-kind
        // tally must say exactly which names were evicted, sorted by
        // name, and must sum to the drop total.
        let mut ring = FlightRecorder::new(2);
        for i in 0..5 {
            ring.push(named_ev(i, "noisy.tick".into()));
        }
        ring.push(named_ev(5, "rare.span".into()));
        ring.push(named_ev(6, "noisy.tick".into()));
        ring.push(named_ev(7, "noisy.tick".into()));
        // 8 pushes, 2 retained: 6 dropped — five noisy ticks and, once
        // the tail churned past it, the rare span as well.
        assert_eq!(ring.dropped(), 6);
        let by_kind: Vec<(String, u64)> = ring
            .dropped_by_kind()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(
            by_kind,
            vec![("noisy.tick".to_string(), 5), ("rare.span".to_string(), 1)]
        );
        assert_eq!(
            ring.dropped_by_kind().map(|(_, v)| v).sum::<u64>(),
            ring.dropped()
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = FlightRecorder::new(0);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        write_json_string("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn span_duration_saturates() {
        let e = TraceEvent {
            seq: 0,
            ts_ms: 5,
            key: 0,
            cause: 0,
            depth: 0,
            kind: EventKind::Span { start_ms: 9 },
            name: "x".into(),
            fields: Vec::new(),
        };
        assert_eq!(e.duration_ms(), 0);
    }

    #[test]
    fn human_rendering() {
        let e = TraceEvent {
            seq: 7,
            ts_ms: 1234,
            key: 0,
            cause: 0,
            depth: 0,
            kind: EventKind::Event,
            name: "dial".into(),
            fields: vec![("ip".into(), Value::Str("10.0.0.1".into()))],
        };
        let line = e.render_human();
        assert!(line.contains("1234ms"));
        assert!(line.contains("dial"));
        assert!(line.contains("ip=\"10.0.0.1\""));
        // Zero provenance renders without causal noise …
        assert!(!line.contains("cause="));
        // … while a dispatched event shows its chain link.
        let caused = TraceEvent {
            key: 9,
            cause: 4,
            depth: 2,
            ..e
        };
        let line = caused.render_human();
        assert!(line.contains("key=9 cause=4 depth=2"), "{line}");
    }
}
