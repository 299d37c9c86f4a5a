//! NodeFinder's dial policy (§4): which node is dialed, when, and as what.
//!
//! [`DialPolicy`] is one state machine with no `Ctx` and no I/O. The
//! crawler feeds it four inputs — a discovery sighting, a finished
//! probe, a dial tick and a static tick — and dials whatever the ticks
//! return; the one random draw, a failure's backoff jitter, comes from
//! the caller's RNG. Its rules:
//!
//! - **Dynamic dials.** A sighted node that is not blocked, not on the
//!   static list and not already queued joins a FIFO queue of at most
//!   [`DIAL_QUEUE_CAP`] records (a full queue drops the sighting; a later
//!   one retries). A dial tick first hands out the retries whose backoff
//!   elapsed, then drains the queue, while fewer than `max_active_dials`
//!   dynamic dials are in flight (Geth's 16). A queued node that has
//!   meanwhile joined the static list is dropped from the queue.
//! - **The static list.** Every probe that answered — a dial's *or an
//!   incoming connection's*, at the connection's source address — joins
//!   its node to the list or refreshes its entry, as `on_start` does for
//!   each bootstrap node. A static tick drops the entries with no answer
//!   for `stale_after_ms` (the paper's 24 h), then dials every due entry
//!   that is not blocked, in ascending id order and uncapped (§4), and
//!   schedules its next dial `static_redial_interval_ms` later (30 min).
//!   A failed dial of a static node pushes its next dial back as well.
//! - **Backoff.** A failed dial backs its node off and, past a threshold,
//!   boxes it ([`PenaltyBox`]); an answer wipes the slate. A retry is
//!   typed by static-list membership: static nodes are retried as
//!   `StaticDial` and claim no slot.
//! - **Never our own address.** A record at the crawler's own address is
//!   never dialed and claims no slot: it stays in the queued set, or its
//!   retry stays in flight, and a static entry's next dial still moves on.
//!
//! The dial slots are counted with a checked release: a result for a
//! dynamic dial that holds no slot is counted as an underflow
//! (`crawler.dialing_underflow`), never clamped.

use crate::backoff::PenaltyBox;
use crate::crawler::CrawlerConfig;
use crate::log::ConnType;
use crate::stages::window_elapsed;
use enode::{NodeId, NodeRecord};
use netsim::HostAddr;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Hard cap on the dial queue. A full queue rejects new sightings
/// (counted as `crawler.stage.dial.backpressure`) rather than growing
/// without bound.
pub(crate) const DIAL_QUEUE_CAP: usize = 4_096;
/// Dial-tick cadence while the queue holds work, and the shortest wait
/// for a retry.
pub(crate) const DIAL_TICK_MS: u64 = 500;
/// Delay before the first static dial of a bootstrap node.
const BOOTSTRAP_DIAL_DELAY_MS: u64 = 1_000;

#[derive(Debug)]
struct StaticEntry {
    record: NodeRecord,
    next_dial_ms: u64,
    last_success_ms: u64,
}

obs::snap_struct!(StaticEntry {
    record,
    next_dial_ms,
    last_success_ms
});

/// What became of a sighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sighting {
    /// The record joined the dial queue.
    Queued,
    /// The queue was full: backpressure, the record was dropped.
    Rejected,
    /// Blocked, on the static list or already queued: nothing to do.
    Ignored,
}

/// NodeFinder's dial state: the queue, the static list, the penalty box
/// and the dial slots (see the module docs for the rules).
#[derive(Debug)]
pub struct DialPolicy {
    max_active_dials: usize,
    static_redial_interval_ms: u64,
    stale_after_ms: u64,
    /// Sighted-but-not-yet-dialed records, oldest first.
    queue: VecDeque<NodeRecord>,
    high_water: usize,
    rejected: u64,
    /// Ids sighted into the queue and not yet settled by a result.
    queued: BTreeSet<NodeId>,
    static_nodes: BTreeMap<NodeId, StaticEntry>,
    /// Last sighting or answer per node ever seen, for the fresh/stale
    /// gauges (freshness window `stale_after_ms`).
    seen: BTreeMap<NodeId, u64>,
    penalty: PenaltyBox,
    /// Dynamic dials in flight.
    dialing: usize,
    underflows: u64,
}

impl DialPolicy {
    /// An empty policy with `config`'s limits, intervals and backoff.
    pub fn new(config: &CrawlerConfig) -> DialPolicy {
        DialPolicy {
            max_active_dials: config.max_active_dials,
            static_redial_interval_ms: config.static_redial_interval_ms,
            stale_after_ms: config.stale_after_ms,
            queue: VecDeque::new(),
            high_water: 0,
            rejected: 0,
            queued: BTreeSet::new(),
            static_nodes: BTreeMap::new(),
            seen: BTreeMap::new(),
            penalty: PenaltyBox::new(
                config.backoff.clone(),
                config.penalty_threshold,
                config.penalty_box_ms,
            ),
            dialing: 0,
            underflows: 0,
        }
    }

    /// Put a bootstrap node on the static list, first dial due shortly.
    pub fn add_bootstrap(&mut self, record: NodeRecord, now_ms: u64) {
        self.static_nodes.insert(
            record.id,
            StaticEntry {
                record,
                next_dial_ms: now_ms + BOOTSTRAP_DIAL_DELAY_MS,
                last_success_ms: now_ms,
            },
        );
    }

    /// Discovery sighted `record`.
    pub fn on_sighting(&mut self, record: NodeRecord, now_ms: u64) -> Sighting {
        self.seen.insert(record.id, now_ms);
        // Blocked nodes wait for their retry, static ones for their tick.
        if self.penalty.is_blocked(&record.id, now_ms)
            || self.static_nodes.contains_key(&record.id)
            || !self.queued.insert(record.id)
        {
            return Sighting::Ignored;
        }
        if self.queue.len() >= DIAL_QUEUE_CAP {
            self.queued.remove(&record.id);
            self.rejected += 1;
            return Sighting::Rejected;
        }
        self.queue.push_back(record);
        self.high_water = self.high_water.max(self.queue.len());
        Sighting::Queued
    }

    /// A probe of type `conn_type` finished; `record` is its peer's id at
    /// the connection's address, if the handshake got that far.
    pub fn on_result<R: Rng + ?Sized>(
        &mut self,
        record: Option<NodeRecord>,
        conn_type: ConnType,
        responded: bool,
        now_ms: u64,
        rng: &mut R,
    ) {
        if conn_type == ConnType::DynamicDial {
            match self.dialing.checked_sub(1) {
                Some(d) => self.dialing = d,
                None => {
                    self.underflows += 1;
                    obs::counter_add("crawler.dialing_underflow", 1);
                }
            }
        }
        let Some(record) = record else {
            return;
        };
        let next_dial_ms = now_ms + self.static_redial_interval_ms;
        if responded {
            self.seen.insert(record.id, now_ms);
            self.penalty.record_success(&record.id);
            self.static_nodes.insert(
                record.id,
                StaticEntry {
                    record,
                    next_dial_ms,
                    last_success_ms: now_ms,
                },
            );
        } else if conn_type != ConnType::Incoming {
            // A failure does not refresh `last_success_ms`, so a dead
            // static entry goes stale; it still pushes the next static
            // dial back (§5.2's "slightly fewer than 48/day").
            self.penalty.record_failure(record, now_ms, rng);
            if let Some(entry) = self.static_nodes.get_mut(&record.id) {
                entry.next_dial_ms = next_dial_ms;
            }
        }
        self.queued.remove(&record.id);
    }

    /// The dial tick: due retries, then the queue, within the slots.
    /// `local` is the crawler's own address.
    pub fn on_dial_tick(&mut self, now_ms: u64, local: HostAddr) -> Vec<(NodeRecord, ConnType)> {
        let mut dials = Vec::new();
        let budget = self.max_active_dials.saturating_sub(self.dialing);
        for record in self.penalty.due_retries(now_ms, budget) {
            let conn_type = if self.static_nodes.contains_key(&record.id) {
                ConnType::StaticDial
            } else {
                ConnType::DynamicDial
            };
            self.claim(&mut dials, record, conn_type, local);
        }
        while self.dialing < self.max_active_dials {
            let Some(record) = self.queue.pop_front() else {
                break;
            };
            if self.static_nodes.contains_key(&record.id) {
                self.queued.remove(&record.id);
                continue;
            }
            self.claim(&mut dials, record, ConnType::DynamicDial, local);
        }
        dials
    }

    /// The static tick: drop stale entries, then dial the due ones.
    pub fn on_static_tick(&mut self, now_ms: u64, local: HostAddr) -> Vec<(NodeRecord, ConnType)> {
        self.static_nodes
            .retain(|_, e| !window_elapsed(now_ms, e.last_success_ms, self.stale_after_ms));
        let mut dials = Vec::new();
        for (id, e) in self.static_nodes.iter_mut() {
            if e.next_dial_ms <= now_ms && !self.penalty.is_blocked(id, now_ms) {
                e.next_dial_ms = now_ms + self.static_redial_interval_ms;
                if !at(&e.record, local) {
                    dials.push((e.record, ConnType::StaticDial));
                }
            }
        }
        dials
    }

    /// How long until the next dial tick is worth having: a tick's wait
    /// while the queue holds work, else until the earliest retry (at least
    /// a tick), else never.
    pub fn next_dial_wake(&self, now_ms: u64) -> Option<u64> {
        if !self.queue.is_empty() {
            return Some(DIAL_TICK_MS);
        }
        let due = self.penalty.next_due_ms()?;
        Some(due.saturating_sub(now_ms).max(DIAL_TICK_MS))
    }

    fn claim(
        &mut self,
        dials: &mut Vec<(NodeRecord, ConnType)>,
        record: NodeRecord,
        conn_type: ConnType,
        local: HostAddr,
    ) {
        if at(&record, local) {
            return;
        }
        if conn_type == ConnType::DynamicDial {
            self.dialing += 1;
        }
        dials.push((record, conn_type));
    }

    /// Dynamic dials in flight.
    pub fn dialing(&self) -> usize {
        self.dialing
    }

    /// Slot releases that found no slot (zero in a correct crawler).
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Whether `id` is on the static list.
    pub fn is_static(&self, id: &NodeId) -> bool {
        self.static_nodes.contains_key(id)
    }

    /// Whether backoff or the box blocks dialing `id` at `now_ms`.
    pub fn is_blocked(&self, id: &NodeId, now_ms: u64) -> bool {
        self.penalty.is_blocked(id, now_ms)
    }

    /// Consecutive failures of `id` (0 after an answer).
    pub fn failures(&self, id: &NodeId) -> u32 {
        self.penalty.failures(id)
    }

    pub(crate) fn static_len(&self) -> usize {
        self.static_nodes.len()
    }

    pub(crate) fn penalty_tracked(&self) -> usize {
        self.penalty.tracked()
    }

    pub(crate) fn boxed_total(&self) -> u64 {
        self.penalty.boxed_total()
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The deepest the dial queue has been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Nodes seen in all, and those seen within `stale_after_ms` of now.
    pub(crate) fn seen_fresh(&self, now_ms: u64) -> (usize, usize) {
        let fresh = self
            .seen
            .values()
            .filter(|&&ts| now_ms.saturating_sub(ts) <= self.stale_after_ms)
            .count();
        (self.seen.len(), fresh)
    }

    /// Append the policy's span of the `NFND` image: queue, marks, queued
    /// set, static list, last-seen stamps, penalty box, slot counters.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.queue.snap(w);
        self.high_water.snap(w);
        self.rejected.snap(w);
        self.queued.snap(w);
        self.static_nodes.snap(w);
        self.seen.snap(w);
        self.penalty.snap(w);
        self.dialing.snap(w);
        self.underflows.snap(w);
    }

    /// Read [`DialPolicy::snap`] output into a policy with `config`'s
    /// limits.
    pub(crate) fn restore(
        r: &mut SnapReader<'_>,
        config: &CrawlerConfig,
    ) -> Result<DialPolicy, SnapError> {
        let mut p = DialPolicy::new(config);
        p.queue = Snap::unsnap(r)?;
        p.high_water = Snap::unsnap(r)?;
        p.rejected = Snap::unsnap(r)?;
        p.queued = Snap::unsnap(r)?;
        p.static_nodes = Snap::unsnap(r)?;
        if p.static_nodes.iter().any(|(id, e)| *id != e.record.id) {
            return Err(SnapError::Corrupt("static node filed under another id"));
        }
        p.seen = Snap::unsnap(r)?;
        p.penalty.restore(r)?;
        p.dialing = Snap::unsnap(r)?;
        p.underflows = Snap::unsnap(r)?;
        Ok(p)
    }
}

/// Whether `record` names the address `local` dials from.
fn at(record: &NodeRecord, local: HostAddr) -> bool {
    record.endpoint.ip == local.ip && record.endpoint.tcp_port == local.port
}
