//! `TraceQuery`: an assertion-friendly view over the flight recorder's
//! retained events, so tests and `crates/analysis` can ask questions
//! like "how many HELLO spans completed?" or "what was the p99 connect
//! latency?" instead of only inspecting end-of-run aggregates.

use crate::trace::{EventKind, TraceEvent};

/// Immutable snapshot of the recorder's event ring (oldest first).
#[derive(Debug, Clone)]
pub struct TraceQuery {
    events: Vec<TraceEvent>,
}

impl TraceQuery {
    pub(crate) fn new(events: Vec<TraceEvent>) -> Self {
        TraceQuery { events }
    }

    /// Build a query over events from outside the recorder — e.g.
    /// `repro chain` re-reading a trace from `obs_trace.jsonl`, or
    /// property tests fabricating causal forests.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        TraceQuery::new(events)
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events whose name matches exactly.
    pub fn named(&self, name: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Events whose name starts with `prefix` (span taxonomy is dotted:
    /// `crawler.stage.connect_ms`, `discv4.lookup_done`, …).
    pub fn with_prefix(&self, prefix: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .collect()
    }

    /// Number of events with this exact name.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// First event with this name, by sequence order.
    pub fn first(&self, name: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Last event with this name, by sequence order.
    pub fn last(&self, name: &str) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| e.name == name)
    }

    /// Durations (ms) of all completed spans with this name, in
    /// completion order.
    pub fn span_durations(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.name == name && matches!(e.kind, EventKind::Span { .. }))
            .map(|e| e.duration_ms())
            .collect()
    }

    /// Exact quantile (`0.0..=1.0`, nearest-rank) over the retained span
    /// durations for `name`. Unlike `Histogram::quantile` this is not
    /// bucketed — but it only sees spans still in the ring.
    pub fn span_quantile_ms(&self, name: &str, q: f64) -> Option<u64> {
        let mut durs = self.span_durations(name);
        if durs.is_empty() {
            return None;
        }
        durs.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        Some(durs[rank - 1])
    }

    // ---- causal provenance -------------------------------------------

    /// Events recorded under scheduler key `key` (every obs emission made
    /// while that dispatch executed), in sequence order.
    pub fn events_for_key(&self, key: u64) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.key == key).collect()
    }

    /// The key of the dispatch that caused dispatch `key`, if any event
    /// recorded under `key` is still in the ring.
    pub fn cause_of(&self, key: u64) -> Option<u64> {
        self.events.iter().find(|e| e.key == key).map(|e| e.cause)
    }

    /// The happens-before chain of dispatch `key`: `[key, parent, …]`
    /// walking `cause` links back toward an external root (`cause = 0`).
    /// The walk stops when the cause is 0, when the causing dispatch
    /// recorded nothing still retained in the ring, or when a key repeats
    /// (a cycle — impossible for engine-minted keys, but the walk must
    /// terminate on arbitrary trace data too).
    pub fn chain(&self, key: u64) -> Vec<u64> {
        // key -> cause, one entry per dispatch seen in the ring.
        let causes: std::collections::BTreeMap<u64, u64> = self
            .events
            .iter()
            .filter(|e| e.key != 0)
            .map(|e| (e.key, e.cause))
            .collect();
        let mut chain = vec![key];
        let mut seen = std::collections::BTreeSet::from([key]);
        let mut cur = key;
        while let Some(&cause) = causes.get(&cur) {
            if cause == 0 || !seen.insert(cause) {
                break;
            }
            chain.push(cause);
            cur = cause;
        }
        chain
    }

    /// Keys of root dispatches still visible in the ring: dispatches of
    /// externally scheduled events (`cause = 0`), sorted ascending.
    pub fn roots(&self) -> Vec<u64> {
        let keys: std::collections::BTreeSet<u64> = self
            .events
            .iter()
            .filter(|e| e.key != 0 && e.cause == 0)
            .map(|e| e.key)
            .collect();
        keys.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Value;

    fn span(seq: u64, name: &str, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            seq,
            ts_ms: end,
            key: 0,
            cause: 0,
            depth: 0,
            kind: EventKind::Span { start_ms: start },
            name: name.into(),
            fields: Vec::new(),
        }
    }

    fn point(seq: u64, name: &str, ts: u64) -> TraceEvent {
        TraceEvent {
            seq,
            ts_ms: ts,
            key: 0,
            cause: 0,
            depth: 0,
            kind: EventKind::Event,
            name: name.into(),
            fields: vec![("seq".into(), Value::U64(seq))],
        }
    }

    fn caused(seq: u64, name: &str, key: u64, cause: u64, depth: u32) -> TraceEvent {
        TraceEvent {
            key,
            cause,
            depth,
            ..point(seq, name, seq)
        }
    }

    fn q() -> TraceQuery {
        TraceQuery::new(vec![
            point(0, "a.x", 1),
            span(1, "a.lat", 0, 10),
            span(2, "a.lat", 5, 35),
            point(3, "b.y", 40),
            span(4, "a.lat", 40, 60),
        ])
    }

    #[test]
    fn filters_and_counts() {
        let q = q();
        assert_eq!(q.count("a.lat"), 3);
        assert_eq!(q.named("b.y").len(), 1);
        assert_eq!(q.with_prefix("a.").len(), 4);
        assert_eq!(q.first("a.lat").map(|e| e.seq), Some(1));
        assert_eq!(q.last("a.lat").map(|e| e.seq), Some(4));
    }

    #[test]
    fn span_durations_and_quantiles() {
        let q = q();
        assert_eq!(q.span_durations("a.lat"), vec![10, 30, 20]);
        assert_eq!(q.span_quantile_ms("a.lat", 0.0), Some(10));
        assert_eq!(q.span_quantile_ms("a.lat", 0.5), Some(20));
        assert_eq!(q.span_quantile_ms("a.lat", 1.0), Some(30));
        assert_eq!(q.span_quantile_ms("missing", 0.5), None);
        // Point events are not spans.
        assert_eq!(q.span_durations("a.x"), Vec::<u64>::new());
    }

    // Two causal trees plus an outside-dispatch event:
    //   root 1 -> 10 -> 20        (depths 0, 1, 2)
    //   root 2 -> 11              (depths 0, 1)
    //   key 0: recorded outside any dispatch
    fn causal_q() -> TraceQuery {
        TraceQuery::new(vec![
            caused(0, "disc", 1, 0, 0),
            caused(1, "disc", 2, 0, 0),
            caused(2, "dial", 10, 1, 1),
            caused(3, "dial", 11, 2, 1),
            caused(4, "hello", 20, 10, 2),
            point(5, "outside", 99),
        ])
    }

    #[test]
    fn chain_walks_to_root() {
        let q = causal_q();
        assert_eq!(q.chain(20), vec![20, 10, 1]);
        assert_eq!(q.chain(11), vec![11, 2]);
        assert_eq!(q.chain(1), vec![1]);
        // Unknown key: the walk has nowhere to go.
        assert_eq!(q.chain(777), vec![777]);
        assert_eq!(q.cause_of(20), Some(10));
        assert_eq!(q.cause_of(1), Some(0));
        assert_eq!(q.cause_of(777), None);
        assert_eq!(q.events_for_key(10).len(), 1);
    }

    #[test]
    fn roots_are_the_cause_zero_keys() {
        let q = causal_q();
        assert_eq!(q.roots(), vec![1, 2]);
    }

    #[test]
    fn chain_terminates_on_cyclic_trace_data() {
        // Hand-forged cycle 5 -> 6 -> 5: engine keys can never do this,
        // but chain() must not loop forever on corrupt input.
        let q = TraceQuery::new(vec![caused(0, "a", 5, 6, 1), caused(1, "b", 6, 5, 1)]);
        assert_eq!(q.chain(5), vec![5, 6]);
    }
}
