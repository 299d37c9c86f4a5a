//! Explicit crawler pipeline stages.
//!
//! The crawl is a five-stage funnel — **discover → dial → handshake →
//! status → ingest** — and this module gives each stage an explicit
//! identity: a bounded hand-off queue where one exists (the dial queue),
//! per-stage entered/completed `obs` counters, and a backpressure counter
//! for when a queue rejects work. The counters live in `obs` alone: its
//! `OBSS` snapshot section carries them across a process restart.
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
//! is deterministic and shard-count-invariant like every other crawler
//! observable.

use std::collections::VecDeque;

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

/// Static obs counter names, indexed by stage: one event each time the
/// stage's hand-off queue rejected work (backpressure).
const BACKPRESSURE_COUNTERS: [&str; 5] = [
    "crawler.stage.discover.backpressure",
    "crawler.stage.dial.backpressure",
    "crawler.stage.handshake.backpressure",
    "crawler.stage.status.backpressure",
    "crawler.stage.ingest.backpressure",
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

    /// This stage's hand-off queue rejected a push.
    pub fn note_backpressure(self) {
        obs::counter_add(BACKPRESSURE_COUNTERS[self as usize], 1);
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

/// A FIFO hand-off queue with a hard capacity.
///
/// `push_back` on a full queue returns the rejected item back to the
/// caller instead of growing: the producer stage sees the backpressure
/// and decides what to drop (for the dial queue: the sighting is simply
/// not queued, and a later sighting of the same endpoint may retry).
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    cap: usize,
    high_water: usize,
    rejected: u64,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            items: VecDeque::new(),
            cap: cap.max(1),
            high_water: 0,
            rejected: 0,
        }
    }

    /// Enqueue, or hand the item back if the queue is full (and count the
    /// rejection).
    pub fn push_back(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.cap {
            self.rejected += 1;
            return Err(item);
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        Ok(())
    }

    /// Dequeue the oldest item.
    pub fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// How many pushes have been rejected (monotone).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Iterate queued items front to back, for checkpointing.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Rebuild from checkpointed parts (items front to back).
    pub fn from_parts(
        cap: usize,
        items: Vec<T>,
        high_water: usize,
        rejected: u64,
    ) -> BoundedQueue<T> {
        BoundedQueue {
            items: items.into(),
            cap: cap.max(1),
            high_water,
            rejected,
        }
    }
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

    #[test]
    fn bounded_queue_rejects_at_cap_and_tracks_marks() {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.push_back(1).is_ok());
        assert!(q.push_back(2).is_ok());
        assert_eq!(q.push_back(3), Err(3), "full queue hands the item back");
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop_front(), Some(1));
        assert!(q.push_back(4).is_ok(), "slot freed by pop");
        assert_eq!(q.len(), 2);
        assert_eq!(q.rejected(), 1);
    }

    #[test]
    fn bounded_queue_round_trips_through_parts() {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(4);
        for v in [7, 8, 9] {
            q.push_back(v).unwrap();
        }
        q.pop_front();
        let items: Vec<u32> = q.iter().copied().collect();
        let q2 = BoundedQueue::from_parts(q.capacity(), items, q.high_water(), q.rejected());
        assert_eq!(q2.len(), 2);
        assert_eq!(q2.high_water(), 3);
        let drained: Vec<u32> = {
            let mut q2 = q2;
            let mut out = Vec::new();
            while let Some(v) = q2.pop_front() {
                out.push(v);
            }
            out
        };
        assert_eq!(drained, vec![8, 9], "FIFO order survives the round trip");
    }
}
