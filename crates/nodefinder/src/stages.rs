//! Explicit crawler pipeline stages.
//!
//! The crawl is a five-stage funnel — **discover → dial → handshake →
//! status → ingest** — and this module gives each stage an explicit
//! identity: a bounded hand-off queue where one exists (the dial queue),
//! per-stage entered/completed counters mirrored into `obs`, a
//! backpressure signal when a queue rejects work, and a serializable
//! [`StageCheckpoint`] so a snapshot can carry the pipeline position
//! across a process restart.
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

use obs::snap_struct;
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

/// All stages in funnel order.
pub const STAGES: [Stage; 5] = [
    Stage::Discover,
    Stage::Dial,
    Stage::Handshake,
    Stage::Status,
    Stage::Ingest,
];

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
    /// Stable lowercase label, used in docs and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Discover => "discover",
            Stage::Dial => "dial",
            Stage::Handshake => "handshake",
            Stage::Status => "status",
            Stage::Ingest => "ingest",
        }
    }

    fn index(self) -> usize {
        self as usize
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

/// Serializable position of one pipeline stage: cumulative entered /
/// completed / backpressure counts plus the stage queue's depth and
/// high-water mark at checkpoint time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCheckpoint {
    /// Records that have entered this stage (monotone).
    pub entered: u64,
    /// Records that advanced past this stage (monotone).
    pub completed: u64,
    /// Pushes the stage's hand-off queue rejected (monotone).
    pub backpressure: u64,
    /// Items waiting in the stage's queue at checkpoint time (0 for
    /// stages without an explicit queue).
    pub queue_depth: usize,
    /// Deepest the stage's queue has been (0 for queueless stages).
    pub queue_high_water: usize,
}

snap_struct!(StageCheckpoint {
    entered,
    completed,
    backpressure,
    queue_depth,
    queue_high_water
});

/// Live per-stage accounting for the whole pipeline.
///
/// `note_*` mutates local counts and mirrors the event to `obs` under a
/// static counter name, so the prometheus export carries the same funnel
/// the checkpoint does.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    stages: [StageCheckpoint; 5],
}

// The five checkpoints in funnel order, with no length prefix.
snap_struct!(PipelineStats { stages });

impl PipelineStats {
    /// All-zero stats.
    pub fn new() -> PipelineStats {
        PipelineStats::default()
    }

    /// A record entered `stage`.
    pub fn note_entered(&mut self, stage: Stage) {
        self.stages[stage.index()].entered += 1;
        obs::counter_add(ENTERED_COUNTERS[stage.index()], 1);
    }

    /// A record completed `stage` (advanced to the next one).
    pub fn note_completed(&mut self, stage: Stage) {
        self.stages[stage.index()].completed += 1;
        obs::counter_add(COMPLETED_COUNTERS[stage.index()], 1);
    }

    /// `stage`'s hand-off queue rejected a push.
    pub fn note_backpressure(&mut self, stage: Stage) {
        self.stages[stage.index()].backpressure += 1;
        obs::counter_add(BACKPRESSURE_COUNTERS[stage.index()], 1);
    }

    /// The current checkpoint for `stage` (queue fields as last recorded
    /// via [`PipelineStats::set_queue`]).
    pub fn checkpoint(&self, stage: Stage) -> StageCheckpoint {
        self.stages[stage.index()]
    }

    /// Record `stage`'s queue depth and high-water mark (called at
    /// checkpoint time by the stage that owns the queue).
    pub fn set_queue(&mut self, stage: Stage, depth: usize, high_water: usize) {
        let s = &mut self.stages[stage.index()];
        s.queue_depth = depth;
        s.queue_high_water = high_water;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::snap::{Snap, SnapReader, SnapWriter};

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

    #[test]
    fn stage_checkpoints_round_trip() {
        let mut stats = PipelineStats::new();
        for _ in 0..3 {
            stats.note_entered(Stage::Discover);
        }
        stats.note_completed(Stage::Discover);
        stats.note_entered(Stage::Dial);
        stats.note_backpressure(Stage::Dial);
        stats.set_queue(Stage::Dial, 5, 9);

        let mut w = SnapWriter::new();
        stats.snap(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        let back = PipelineStats::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        for st in STAGES {
            assert_eq!(back.checkpoint(st), stats.checkpoint(st), "{}", st.label());
        }
        assert_eq!(back.checkpoint(Stage::Discover).entered, 3);
        assert_eq!(back.checkpoint(Stage::Dial).backpressure, 1);
        assert_eq!(back.checkpoint(Stage::Dial).queue_high_water, 9);
    }
}
