//! The iterative FIND_NODE lookup (§2.1).
//!
//! A lookup walks the network toward a target ID: query the α closest known
//! nodes, merge their NEIGHBORS responses, re-query the now-closest
//! unqueried nodes, and stop when the closest `k` set stops improving.
//! Sans-IO: the caller pumps [`Lookup::next_queries`] / feeds
//! [`Lookup::on_response`] / [`Lookup::on_failure`].

use crate::distance::xor_cmp;
use enode::{NodeId, NodeRecord};
use std::cmp::Ordering;

/// Concurrency factor α (both Geth and the Kademlia paper use 3).
pub const ALPHA: usize = 3;

/// Result-set size k (Geth's `bucketSize`).
pub const K: usize = 16;

/// Progress state of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupStatus {
    /// More queries can be issued.
    InProgress,
    /// Converged: the closest-k set is fully queried (or no nodes remain).
    Done,
}

#[derive(Debug, Clone)]
struct Candidate {
    record: NodeRecord,
    hash: [u8; 32],
    queried: bool,
    failed: bool,
}

/// An in-flight iterative lookup toward `target`.
#[derive(Debug, Clone)]
pub struct Lookup {
    target_hash: [u8; 32],
    /// Every node seen, closest to the target first. None is ever removed,
    /// so the list is also the membership index `insert` checks.
    candidates: Vec<Candidate>,
    in_flight: usize,
    queries_sent: usize,
}

impl Lookup {
    /// Start a lookup toward the given **hashed** target, seeded with the
    /// closest nodes from the local routing table.
    pub fn new(target_hash: [u8; 32], seeds: Vec<NodeRecord>) -> Lookup {
        let mut lookup = Lookup {
            target_hash,
            candidates: Vec::new(),
            in_flight: 0,
            queries_sent: 0,
        };
        for s in seeds {
            lookup.insert(s);
        }
        lookup
    }

    /// The hashed target.
    pub fn target(&self) -> &[u8; 32] {
        &self.target_hash
    }

    /// Total FIND_NODE queries issued so far.
    pub fn queries_sent(&self) -> usize {
        self.queries_sent
    }

    /// Add a node not seen before, in XOR order; `false` if it was seen.
    /// Equal distance to the target means an equal hash, so a node seen
    /// before sits in the run of equal hashes the binary search lands in.
    fn insert(&mut self, record: NodeRecord) -> bool {
        let hash = record.id.kad_hash();
        let found = self
            .candidates
            .binary_search_by(|c| xor_cmp(&self.target_hash, &c.hash, &hash));
        let pos = match found {
            Ok(at) => {
                let run = |c: &&Candidate| c.hash == hash;
                let before = self.candidates[..at].iter().rev().take_while(run);
                let after = self.candidates[at..].iter().take_while(run);
                if before.chain(after).any(|c| c.record.id == record.id) {
                    return false;
                }
                at
            }
            Err(at) => at,
        };
        self.candidates.insert(
            pos,
            Candidate {
                record,
                hash,
                queried: false,
                failed: false,
            },
        );
        true
    }

    /// Heap the lookup holds: its candidate list's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.candidates.capacity() * std::mem::size_of::<Candidate>()
    }

    /// Nodes to query next: the closest unqueried candidates, up to α minus
    /// what is already in flight. Marks them queried.
    pub fn next_queries(&mut self) -> Vec<NodeRecord> {
        let budget = ALPHA.saturating_sub(self.in_flight);
        let mut out = Vec::new();
        // Only walk the closest-K frontier; Kademlia does not query the tail.
        let frontier: Vec<usize> = self
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.failed)
            .take(K)
            .filter(|(_, c)| !c.queried)
            .map(|(i, _)| i)
            .take(budget)
            .collect();
        for i in frontier {
            self.candidates[i].queried = true;
            self.in_flight += 1;
            self.queries_sent += 1;
            out.push(self.candidates[i].record);
        }
        out
    }

    /// Merge a NEIGHBORS response from a queried node. Returns how many new
    /// candidates it contributed.
    pub fn on_response(&mut self, from: &NodeId, neighbors: Vec<NodeRecord>) -> usize {
        self.settle(from);
        let mut new = 0;
        for n in neighbors {
            if self.insert(n) {
                new += 1;
            }
        }
        new
    }

    /// Record that a queried node timed out.
    pub fn on_failure(&mut self, from: &NodeId) {
        self.settle(from);
        if let Some(c) = self.candidates.iter_mut().find(|c| c.record.id == *from) {
            c.failed = true;
        }
    }

    fn settle(&mut self, from: &NodeId) {
        if self
            .candidates
            .iter()
            .any(|c| c.record.id == *from && c.queried)
        {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
    }

    /// Whether the lookup has converged.
    pub fn status(&self) -> LookupStatus {
        if self.in_flight > 0 {
            return LookupStatus::InProgress;
        }
        let any_unqueried_in_frontier = self
            .candidates
            .iter()
            .filter(|c| !c.failed)
            .take(K)
            .any(|c| !c.queried);
        if any_unqueried_in_frontier {
            LookupStatus::InProgress
        } else {
            LookupStatus::Done
        }
    }

    /// The closest `k` successfully-contactable results.
    pub fn closest(&self, k: usize) -> Vec<NodeRecord> {
        self.candidates
            .iter()
            .filter(|c| !c.failed)
            .take(k)
            .map(|c| c.record)
            .collect()
    }

    /// Every node learned during the lookup (for the crawler, which wants
    /// *all* discovered nodes, not just the k closest).
    pub fn all_seen(&self) -> Vec<NodeRecord> {
        self.candidates.iter().map(|c| c.record).collect()
    }

    /// Capture the lookup for checkpoint/restore as plain data:
    /// `(target hash, (record, queried, failed) in frontier order,
    /// in-flight queries, queries sent)`. Candidate hashes are derived
    /// data and deliberately omitted.
    pub fn to_parts(&self) -> LookupParts {
        let candidates = self
            .candidates
            .iter()
            .map(|c| (c.record, c.queried, c.failed))
            .collect();
        (
            self.target_hash,
            candidates,
            self.in_flight,
            self.queries_sent,
        )
    }

    /// Rebuild a lookup mid-walk from [`Lookup::to_parts`] output. The
    /// candidates keep their order, so tie ordering survives the round
    /// trip; it must be the order `insert` keeps — strictly ascending XOR
    /// distance to the target, which also rules out an id listed twice —
    /// or `insert`'s binary search would file later candidates wrongly,
    /// and the lookup is refused.
    pub fn from_parts(
        (target_hash, candidates, in_flight, queries_sent): LookupParts,
    ) -> Result<Lookup, &'static str> {
        let candidates: Vec<Candidate> = candidates
            .into_iter()
            .map(|(record, queried, failed)| Candidate {
                hash: record.id.kad_hash(),
                record,
                queried,
                failed,
            })
            .collect();
        if !candidates
            .windows(2)
            .all(|w| xor_cmp(&target_hash, &w[0].hash, &w[1].hash) == Ordering::Less)
        {
            return Err("lookup candidates not strictly ascending by XOR distance");
        }
        Ok(Lookup {
            target_hash,
            candidates,
            in_flight,
            queries_sent,
        })
    }
}

/// What [`Lookup::to_parts`] captures.
pub type LookupParts = ([u8; 32], Vec<(NodeRecord, bool, bool)>, usize, usize);

#[cfg(test)]
mod tests {
    use super::*;
    use enode::Endpoint;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn rec(tag: u16) -> NodeRecord {
        let mut id = [0u8; 64];
        id[0] = (tag >> 8) as u8;
        id[1] = tag as u8;
        NodeRecord::new(NodeId(id), Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303))
    }

    #[test]
    fn queries_respect_alpha() {
        let seeds: Vec<_> = (0..10).map(rec).collect();
        let mut lk = Lookup::new([0u8; 32], seeds);
        let q1 = lk.next_queries();
        assert_eq!(q1.len(), ALPHA);
        // nothing more until responses arrive
        assert!(lk.next_queries().is_empty());
        assert_eq!(lk.status(), LookupStatus::InProgress);
    }

    #[test]
    fn responses_release_slots_and_add_candidates() {
        let seeds: Vec<_> = (0..3).map(rec).collect();
        let mut lk = Lookup::new([0u8; 32], seeds);
        let q = lk.next_queries();
        assert_eq!(q.len(), 3);
        let new = lk.on_response(&q[0].id, (100..105).map(rec).collect());
        assert_eq!(new, 5);
        let q2 = lk.next_queries();
        assert_eq!(q2.len(), 1); // one slot freed
        assert!(!q2.contains(&q[0]));
    }

    #[test]
    fn duplicate_neighbors_not_recounted() {
        let mut lk = Lookup::new([0u8; 32], vec![rec(1)]);
        let q = lk.next_queries();
        assert_eq!(lk.on_response(&q[0].id, vec![rec(2), rec(2), rec(1)]), 1);
    }

    #[test]
    fn converges_when_frontier_queried() {
        let seeds: Vec<_> = (0..2).map(rec).collect();
        let mut lk = Lookup::new([0u8; 32], seeds);
        loop {
            let qs = lk.next_queries();
            if qs.is_empty() && lk.status() == LookupStatus::Done {
                break;
            }
            for q in qs {
                lk.on_response(&q.id, vec![]);
            }
        }
        assert_eq!(lk.status(), LookupStatus::Done);
        assert_eq!(lk.queries_sent(), 2);
    }

    #[test]
    fn failures_remove_from_results() {
        let mut lk = Lookup::new([0u8; 32], vec![rec(1), rec(2), rec(3)]);
        let q = lk.next_queries();
        lk.on_failure(&q[0].id);
        lk.on_response(&q[1].id, vec![]);
        lk.on_response(&q[2].id, vec![]);
        while lk.status() == LookupStatus::InProgress {
            for q in lk.next_queries() {
                lk.on_response(&q.id, vec![]);
            }
        }
        let closest = lk.closest(16);
        assert_eq!(closest.len(), 2);
        assert!(!closest.iter().any(|r| r.id == q[0].id));
        // but all_seen still includes it (the crawler logs every sighting)
        assert_eq!(lk.all_seen().len(), 3);
    }

    #[test]
    fn from_parts_refuses_candidates_out_of_xor_order() {
        let mut lk = Lookup::new([0u8; 32], (0..10).map(rec).collect());
        lk.next_queries();
        let parts = lk.to_parts();
        let back = Lookup::from_parts(parts.clone()).map(|l| l.to_parts());
        assert_eq!(back, Ok(parts.clone()));
        let mut swapped = parts.clone();
        swapped.1.swap(3, 4);
        assert!(Lookup::from_parts(swapped).is_err());
        let mut repeated = parts;
        repeated.1[4] = repeated.1[3];
        assert!(Lookup::from_parts(repeated).is_err());
    }

    #[test]
    fn results_sorted_by_xor_distance() {
        let target = [0u8; 32];
        let seeds: Vec<_> = (0..30).map(rec).collect();
        let mut lk = Lookup::new(target, seeds);
        while lk.status() == LookupStatus::InProgress {
            for q in lk.next_queries() {
                lk.on_response(&q.id, vec![]);
            }
        }
        let got = lk.closest(16);
        for w in got.windows(2) {
            assert_ne!(
                xor_cmp(&target, &w[0].id.kad_hash(), &w[1].id.kad_hash()),
                std::cmp::Ordering::Greater
            );
        }
    }

    /// `insert` as it was with a second index, the set of every id seen:
    /// the oracle for membership answered by the binary search alone.
    fn insert_with_set(lk: &mut Lookup, seen: &mut BTreeSet<NodeId>, record: NodeRecord) -> bool {
        if !seen.insert(record.id) {
            return false;
        }
        let hash = record.id.kad_hash();
        let pos = lk
            .candidates
            .binary_search_by(|c| xor_cmp(&lk.target_hash, &c.hash, &hash))
            .unwrap_or_else(|p| p);
        let candidate = Candidate {
            record,
            hash,
            queried: false,
            failed: false,
        };
        lk.candidates.insert(pos, candidate);
        true
    }

    proptest! {
        /// Seeds and NEIGHBORS responses drawn from a pool of 48 ids, so
        /// most carry repeats, within a response and across responses.
        #[test]
        fn insert_agrees_with_a_set_of_ids_seen(
            target in proptest::array::uniform32(any::<u8>()),
            seeds in proptest::collection::vec(0u16..48, 0..8),
            responses in proptest::collection::vec(
                proptest::collection::vec(0u16..48, 0..20),
                1..12,
            ),
        ) {
            let mut lk = Lookup::new(target, seeds.iter().map(|&t| rec(t)).collect());
            let mut oracle = Lookup::new(target, Vec::new());
            let mut seen = BTreeSet::new();
            for &t in &seeds {
                insert_with_set(&mut oracle, &mut seen, rec(t));
            }
            for ids in responses {
                let queried = lk.next_queries();
                prop_assert_eq!(&queried, &oracle.next_queries());
                let from = queried.first().map_or(rec(0).id, |r| r.id);
                let neighbors: Vec<NodeRecord> = ids.into_iter().map(rec).collect();
                oracle.settle(&from);
                let expected = neighbors
                    .iter()
                    .filter(|&&n| insert_with_set(&mut oracle, &mut seen, n))
                    .count();
                prop_assert_eq!(lk.on_response(&from, neighbors), expected);
                prop_assert_eq!(lk.to_parts(), oracle.to_parts());
            }
        }
    }
}
