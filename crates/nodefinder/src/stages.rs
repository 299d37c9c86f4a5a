//! Explicit crawler pipeline stages.
//!
//! The crawl is a five-stage funnel — **discover → dial → handshake →
//! status → ingest** — and this module gives each stage an explicit
//! identity: per-stage entered/completed `obs` counters (the dial stage
//! also counts `crawler.stage.dial.backpressure` when the policy's dial
//! queue is full). The counters live in `obs` alone: its `OBSS` snapshot
//! section carries them across a process restart.
//!
//! A record *enters* a stage when the crawler starts that phase of work
//! for it (a sighting is considered for dialing, a TCP connect goes out,
//! an RLPx handshake begins, a STATUS is sent, a finished probe is
//! written to the log) and *completes* it when it advances to the next
//! stage. Failures simply never complete — the per-stage deltas are the
//! dial funnel of §4.2, now observable while the crawl is running rather
//! than only after `DataStore::from_log`.
//!
//! Everything here is pure state plus `obs` side effects with static
//! counter names (no per-event allocation), so the pipeline accounting
//! is deterministic like every other crawler observable.

/// One stage of the crawl pipeline, in funnel order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// A discovery sighting is being considered for the dial queue.
    Discover,
    /// A TCP connect is in flight.
    Dial,
    /// The RLPx auth/ack + DEVp2p HELLO exchange is in flight.
    Handshake,
    /// An eth STATUS exchange (and optional DAO header check) is in flight.
    Status,
    /// A finished probe is being folded into the crawl log.
    Ingest,
}

/// Static obs counter names, indexed by stage: one event each time a
/// record enters the stage.
const ENTERED_COUNTERS: [&str; 5] = [
    "crawler.stage.discover.entered",
    "crawler.stage.dial.entered",
    "crawler.stage.handshake.entered",
    "crawler.stage.status.entered",
    "crawler.stage.ingest.entered",
];

/// Static obs counter names, indexed by stage: one event each time a
/// record completes the stage (advances to the next one).
const COMPLETED_COUNTERS: [&str; 5] = [
    "crawler.stage.discover.completed",
    "crawler.stage.dial.completed",
    "crawler.stage.handshake.completed",
    "crawler.stage.status.completed",
    "crawler.stage.ingest.completed",
];

impl Stage {
    /// A record entered this stage.
    pub fn note_entered(self) {
        obs::counter_add(ENTERED_COUNTERS[self as usize], 1);
    }

    /// A record completed this stage (advanced to the next one).
    pub fn note_completed(self) {
        obs::counter_add(COMPLETED_COUNTERS[self as usize], 1);
    }
}

/// Has the half-open window `[start, start + window)` fully elapsed at
/// `now`? True at exactly `start + window` and after.
///
/// Every crawler time window — probe total timeout, static-node
/// staleness, backoff due time — uses this one predicate so the boundary
/// convention cannot drift between sites (it used to: two sites were
/// strict `>`, treating `start + window` as still inside the window).
pub fn window_elapsed(now_ms: u64, start_ms: u64, window_ms: u64) -> bool {
    now_ms.saturating_sub(start_ms) >= window_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_boundary_is_half_open() {
        // [start, start+window): not elapsed at window-1, elapsed at
        // exactly window and after.
        assert!(!window_elapsed(999, 0, 1_000));
        assert!(window_elapsed(1_000, 0, 1_000));
        assert!(window_elapsed(1_001, 0, 1_000));
        // Offset start behaves identically.
        assert!(!window_elapsed(5_999, 5_000, 1_000));
        assert!(window_elapsed(6_000, 5_000, 1_000));
        // A clock that somehow reads before start never counts as elapsed
        // (saturating), except for the degenerate zero-width window.
        assert!(!window_elapsed(0, 5_000, 1_000));
        assert!(window_elapsed(0, 5_000, 0));
    }
}
