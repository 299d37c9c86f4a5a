//! The engine's event queue: a `BinaryHeap` of `(at, key, item)` entries
//! popped in ascending `(at, key)` order, one queue per shard. `key` is the
//! engine's per-origin scheduler key (see `NetSim::push`): unique, so the
//! order is total and items are never compared, but not pushed ascending.
//! Why a heap and not a timer wheel: DESIGN.md § Performance.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// The name the frozen `benchmark/src/ledger.rs` imports.
pub type TimerWheel<T> = EventQueue<T>;

/// A pending event, ordered by `(at, key)` reversed: `BinaryHeap` is a max-heap.
struct Entry<T> {
    at: u64,
    key: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Min-queue over unique `(at, key)` pairs.
pub struct EventQueue<T>(BinaryHeap<Entry<T>>);

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue(BinaryHeap::new())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Schedule `item` at `(at, key)`; `key` must not be pending already.
    pub fn push(&mut self, at: u64, key: u64, item: T) {
        self.0.push(Entry { at, key, item });
    }

    /// `(at, key)` of the earliest pending event.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.0.peek().map(|e| (e.at, e.key))
    }

    /// Pop the earliest event if its time is `<= until`.
    pub fn pop_at_most(&mut self, until: u64) -> Option<(u64, u64, T)> {
        let e = PeekMut::pop(self.0.peek_mut().filter(|e| e.at <= until)?);
        Some((e.at, e.key, e.item))
    }

    /// Every pending event in ascending `(at, key)` order — dispatch
    /// order, and the order a snapshot writes.
    pub fn sorted(&self) -> Vec<(u64, u64, &T)> {
        let mut all: Vec<_> = self.0.iter().map(|e| (e.at, e.key, &e.item)).collect();
        all.sort_unstable_by_key(|&(at, key, _)| (at, key));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(events: &[(u64, u64)]) -> EventQueue<u32> {
        let mut q = EventQueue::new();
        for (i, &(at, key)) in events.iter().enumerate() {
            q.push(at, key, i as u32);
        }
        q
    }

    fn drain(q: &mut EventQueue<u32>, until: u64) -> Vec<(u64, u64, u32)> {
        std::iter::from_fn(|| q.pop_at_most(until)).collect()
    }

    #[test]
    fn sorted_rebuild_preserves_pop_order() {
        let mut q = queue(&[(3, 1), (3, 2), (700, 3), (1_500, 4), (600_000, 5), (5, 9)]);
        assert_eq!(drain(&mut q, 3).len(), 2);
        let (mut rebuilt, mut prev) = (EventQueue::new(), None);
        for (at, key, &item) in q.sorted() {
            assert!(prev < Some((at, key)), "not ascending");
            prev = Some((at, key));
            rebuilt.push(at, key, item);
        }
        assert_eq!(drain(&mut rebuilt, u64::MAX), drain(&mut q, u64::MAX));
    }

    #[test]
    fn pops_in_at_seq_order() {
        let mut q = queue(&[(30, 0), (10, 1), (20, 2), (10, 3)]);
        let want = vec![(10, 1, 1), (10, 3, 3), (20, 2, 2), (30, 0, 0)];
        assert_eq!(drain(&mut q, 100), want);
        assert!(q.is_empty());
    }

    #[test]
    fn until_bound_is_inclusive_and_resumable() {
        let mut q = queue(&[(5, 0), (7, 1), (9, 2)]);
        assert_eq!(drain(&mut q, 7), vec![(5, 0, 0), (7, 1, 1)]);
        assert_eq!(drain(&mut q, 8), vec![]);
        assert_eq!(drain(&mut q, 9), vec![(9, 2, 2)]);
    }

    #[test]
    fn same_time_pushes_between_pops_keep_seq_order() {
        // A zero-delay timer pops after the keys already queued at t.
        let mut q = queue(&[(50, 0), (50, 1)]);
        assert_eq!(q.pop_at_most(1_000), Some((50, 0, 0)));
        q.push(50, 2, 2);
        assert_eq!(drain(&mut q, 1_000), vec![(50, 1, 1), (50, 2, 2)]);
    }

    #[test]
    fn out_of_order_keys_at_one_time_pop_sorted() {
        let mut q = queue(&[(40, 500), (40, 7), (40, 900), (40, 100)]);
        let want = vec![(40, 7, 1), (40, 100, 3), (40, 500, 0), (40, 900, 2)];
        assert_eq!(drain(&mut q, 100), want);
    }

    #[test]
    fn smaller_key_pushed_after_pop_at_same_time_pops_next() {
        let mut q = queue(&[(50, 10), (50, 20)]);
        assert_eq!(q.pop_at_most(1_000), Some((50, 10, 0)));
        q.push(50, 3, 2);
        assert_eq!(drain(&mut q, 1_000), vec![(50, 3, 2), (50, 20, 1)]);
    }

    #[test]
    fn pop_is_none_when_head_is_beyond_until() {
        let mut q = queue(&[(10_000, 0)]);
        assert_eq!(q.pop_at_most(9_999), None);
        q.push(9_999, 1, 1);
        assert_eq!(drain(&mut q, 10_000), vec![(9_999, 1, 1), (10_000, 0, 0)]);
        assert_eq!(q.pop_at_most(u64::MAX), None);
    }

    #[test]
    fn far_future_drains_in_order() {
        let (mid, far) = (600_000, 2_000_000);
        let mut q = queue(&[(far, 0), (mid, 1), (far, 2), (5, 3)]);
        let want = vec![(5, 3, 3), (mid, 1, 1), (far, 0, 0), (far, 2, 2)];
        assert_eq!(drain(&mut q, 3_000_000), want);
    }

    #[test]
    fn peek_does_not_consume_and_respects_bound() {
        let mut q = queue(&[(2_500, 1), (30, 0)]);
        assert_eq!(q.pop_at_most(20), None);
        assert_eq!((q.peek(), q.len()), (Some((30, 0)), 2));
        assert_eq!(q.pop_at_most(100), Some((30, 0, 1)));
        q.push(40, 9, 2); // a push is visible at the next peek
        assert_eq!(q.peek(), Some((40, 9)));
        assert_eq!(drain(&mut q, u64::MAX).len(), 2);
        assert_eq!(q.peek(), None);
    }
}
