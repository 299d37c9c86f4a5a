//! Dial retry backoff and the penalty box.
//!
//! On the live network most discovered endpoints never answer (§4.2), and
//! a crawler that re-dials failures at full cadence wastes its dial slots
//! on dead addresses. NodeFinder therefore applies capped exponential
//! backoff per failing endpoint, with deterministic jitter drawn from the
//! simulation RNG (`Ctx::rng`), and moves endpoints that keep failing
//! into a penalty box: no dials at all until the box interval elapses.
//!
//! Everything here is pure state + a caller-supplied RNG, so two runs
//! with the same seed schedule byte-identical retries.
//!
//! Endpoints are keyed by their [`NodeId`], so [`PenaltyBox::due_retries`]
//! hands them out in ascending id order.

use enode::{NodeId, NodeRecord};
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use rand::Rng;
use std::collections::BTreeMap;

/// Exponential-backoff parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay after the first failure, ms.
    pub base_ms: u64,
    /// Backoff ceiling, ms.
    pub cap_ms: u64,
    /// Jitter bound, ms: a uniform draw in `[0, jitter_ms)` is added to
    /// every delay so retries don't synchronize across endpoints.
    pub jitter_ms: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base_ms: 5_000,
            cap_ms: 120_000,
            jitter_ms: 1_000,
        }
    }
}

impl BackoffPolicy {
    /// The un-jittered delay after `failures` consecutive failures
    /// (`failures >= 1`). Doubles each failure, capped at `cap_ms`.
    pub fn raw_delay_ms(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(20);
        self.base_ms.saturating_mul(1u64 << shift).min(self.cap_ms)
    }

    /// The jittered delay. Deterministic for a fixed RNG state.
    pub fn delay_ms<R: Rng + ?Sized>(&self, failures: u32, rng: &mut R) -> u64 {
        let raw = self.raw_delay_ms(failures);
        if self.jitter_ms == 0 {
            raw
        } else {
            raw + rng.gen_range(0..self.jitter_ms)
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PenaltyEntry {
    record: NodeRecord,
    failures: u32,
    /// Earliest time the next dial may go out. `u64::MAX` while a retry
    /// has been handed out and no result has come back yet.
    next_allowed_ms: u64,
    boxed: bool,
}

obs::snap_struct!(PenaltyEntry {
    record,
    failures,
    next_allowed_ms,
    boxed
});

/// Per-endpoint failure tracking: backoff, then the box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PenaltyBox {
    policy: BackoffPolicy,
    /// Consecutive failures at which an endpoint is boxed.
    pub threshold: u32,
    /// How long a boxed endpoint sits out, ms.
    pub box_ms: u64,
    entries: BTreeMap<NodeId, PenaltyEntry>,
    boxed_total: u64,
}

impl PenaltyBox {
    /// Build with a policy, box threshold, and box duration.
    pub fn new(policy: BackoffPolicy, threshold: u32, box_ms: u64) -> PenaltyBox {
        PenaltyBox {
            policy,
            threshold,
            box_ms,
            entries: BTreeMap::new(),
            boxed_total: 0,
        }
    }

    /// Record a failed dial of `record`. Returns the time before which the
    /// endpoint must not be re-dialed.
    pub fn record_failure<R: Rng + ?Sized>(
        &mut self,
        record: NodeRecord,
        now_ms: u64,
        rng: &mut R,
    ) -> u64 {
        let entry = self.entries.entry(record.id).or_insert(PenaltyEntry {
            record,
            failures: 0,
            next_allowed_ms: now_ms,
            boxed: false,
        });
        entry.record = record;
        entry.failures = entry.failures.saturating_add(1);
        if entry.failures >= self.threshold {
            if !entry.boxed {
                entry.boxed = true;
                self.boxed_total += 1;
            }
            entry.next_allowed_ms = now_ms + self.box_ms;
        } else {
            entry.boxed = false;
            entry.next_allowed_ms = now_ms + self.policy.delay_ms(entry.failures, rng);
        }
        entry.next_allowed_ms
    }

    /// Record a successful contact: the endpoint's slate is wiped clean.
    pub fn record_success(&mut self, id: &NodeId) {
        self.entries.remove(id);
    }

    /// Whether dialing `id` is currently blocked by backoff or the box.
    pub fn is_blocked(&self, id: &NodeId, now_ms: u64) -> bool {
        self.entries
            .get(id)
            .map(|e| e.next_allowed_ms > now_ms)
            .unwrap_or(false)
    }

    /// Hand out up to `limit` endpoints whose backoff has elapsed, in
    /// ascending `NodeId` order. Each is returned at most once per backoff
    /// period: the entry is marked in-flight until the next
    /// `record_failure`/`record_success`.
    pub fn due_retries(&mut self, now_ms: u64, limit: usize) -> Vec<NodeRecord> {
        let mut due = Vec::new();
        for entry in self.entries.values_mut() {
            if due.len() >= limit {
                break;
            }
            if entry.next_allowed_ms <= now_ms {
                entry.next_allowed_ms = u64::MAX;
                due.push(entry.record);
            }
        }
        due
    }

    /// The earliest time any tracked endpoint becomes dialable (`None` if
    /// nothing is waiting).
    pub fn next_due_ms(&self) -> Option<u64> {
        self.entries
            .values()
            .map(|e| e.next_allowed_ms)
            .filter(|t| *t != u64::MAX)
            .min()
    }

    /// Endpoints currently tracked as failing.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Endpoints currently sitting in the box.
    pub fn boxed_now(&self, now_ms: u64) -> usize {
        self.entries
            .values()
            .filter(|e| e.boxed && e.next_allowed_ms > now_ms)
            .count()
    }

    /// How many times any endpoint has entered the box (monotone).
    pub fn boxed_total(&self) -> u64 {
        self.boxed_total
    }

    /// Consecutive-failure count for `id` (0 if untracked).
    pub fn failures(&self, id: &NodeId) -> u32 {
        self.entries.get(id).map(|e| e.failures).unwrap_or(0)
    }

    /// Append every tracked endpoint in ascending `NodeId` order, then
    /// the monotone box total.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.entries.len());
        for e in self.entries.values() {
            e.snap(w);
        }
        self.boxed_total.snap(w);
    }

    /// Fill this empty box from [`PenaltyBox::snap`] output. Entries no
    /// run writes are `Corrupt`: ids not strictly ascending, or an entry
    /// with no failure (`record_failure` always counts one).
    pub(crate) fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for e in Vec::<PenaltyEntry>::unsnap(r)? {
            if e.failures == 0 {
                return Err(SnapError::Corrupt("penalty entry with no failures"));
            }
            if self
                .entries
                .last_key_value()
                .is_some_and(|(last, _)| *last >= e.record.id)
            {
                return Err(SnapError::Corrupt("penalty entry ids not ascending"));
            }
            self.entries.insert(e.record.id, e);
        }
        self.boxed_total = Snap::unsnap(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode::Endpoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn rec(tag: u8) -> NodeRecord {
        NodeRecord::new(
            NodeId([tag; 64]),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, tag), 30303),
        )
    }

    #[test]
    fn raw_delay_doubles_and_caps() {
        let p = BackoffPolicy::default();
        assert_eq!(p.raw_delay_ms(1), 5_000);
        assert_eq!(p.raw_delay_ms(2), 10_000);
        assert_eq!(p.raw_delay_ms(3), 20_000);
        assert_eq!(p.raw_delay_ms(6), 120_000); // 160s capped to 120s
        assert_eq!(p.raw_delay_ms(60), 120_000); // shift saturates, no overflow
    }

    #[test]
    fn box_engages_at_threshold_and_success_clears() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pb = PenaltyBox::new(BackoffPolicy::default(), 3, 600_000);
        let r = rec(1);
        pb.record_failure(r, 0, &mut rng);
        pb.record_failure(r, 10_000, &mut rng);
        assert_eq!(pb.boxed_total(), 0);
        let until = pb.record_failure(r, 30_000, &mut rng);
        assert_eq!(until, 630_000);
        assert_eq!(pb.boxed_total(), 1);
        assert!(pb.is_blocked(&r.id, 600_000));
        assert!(!pb.is_blocked(&r.id, 630_000));
        pb.record_success(&r.id);
        assert_eq!(pb.failures(&r.id), 0);
        assert!(!pb.is_blocked(&r.id, 0));
        assert_eq!(pb.boxed_total(), 1, "total is monotone");
    }

    #[test]
    fn due_retries_hand_out_each_endpoint_once() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pb = PenaltyBox::new(
            BackoffPolicy {
                jitter_ms: 0,
                ..BackoffPolicy::default()
            },
            10,
            600_000,
        );
        pb.record_failure(rec(1), 0, &mut rng);
        pb.record_failure(rec(2), 0, &mut rng);
        assert!(pb.due_retries(1_000, 8).is_empty(), "backoff not elapsed");
        let due = pb.due_retries(10_000, 8);
        assert_eq!(due.len(), 2);
        assert!(
            pb.due_retries(10_000, 8).is_empty(),
            "in-flight entries are not handed out twice"
        );
        assert_eq!(pb.next_due_ms(), None);
    }

    #[test]
    fn due_respects_limit() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pb = PenaltyBox::new(
            BackoffPolicy {
                jitter_ms: 0,
                ..BackoffPolicy::default()
            },
            10,
            600_000,
        );
        for t in 0..6 {
            pb.record_failure(rec(t + 1), 0, &mut rng);
        }
        assert_eq!(pb.due_retries(10_000, 4).len(), 4);
        assert_eq!(pb.due_retries(10_000, 4).len(), 2);
    }

    #[test]
    fn due_time_boundary_is_half_open() {
        // The retry window is [failure, due): blocked through due-1, dialable
        // at exactly the due instant (and `due_retries` hands it out then).
        let mut rng = StdRng::seed_from_u64(9);
        let mut pb = PenaltyBox::new(
            BackoffPolicy {
                jitter_ms: 0,
                ..BackoffPolicy::default()
            },
            10,
            600_000,
        );
        let r = rec(1);
        let due = pb.record_failure(r, 0, &mut rng);
        assert!(pb.is_blocked(&r.id, due - 1), "blocked one ms before due");
        assert!(pb.due_retries(due - 1, 8).is_empty());
        assert!(!pb.is_blocked(&r.id, due), "dialable at exactly due");
        assert_eq!(pb.due_retries(due, 8).len(), 1);
    }

    #[test]
    fn due_retries_come_out_in_node_id_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pb = PenaltyBox::new(
            BackoffPolicy {
                jitter_ms: 0,
                ..BackoffPolicy::default()
            },
            100,
            600_000,
        );
        // Fail endpoints in an order hostile to NodeId order.
        for tag in [9u8, 2, 7, 1, 5] {
            pb.record_failure(rec(tag), 0, &mut rng);
        }
        let ids: Vec<NodeId> = pb
            .due_retries(10_000, 8)
            .into_iter()
            .map(|r| r.id)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "handout is in ascending NodeId order");
    }
}
