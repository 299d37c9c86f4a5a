//! Hierarchical timer wheel — the engine's event scheduler.
//!
//! The simulator's previous scheduler was a `BinaryHeap<Reverse<Scheduled>>`:
//! every push and pop paid an `O(log n)` sift over a comparison on
//! `(at, seq)`. Discrete-event workloads are overwhelmingly *near-future*
//! (RTT-scale deliveries and second-scale timers), which is exactly the
//! shape a hashed hierarchical timer wheel turns into `O(1)` pushes and
//! amortized-`O(1)` pops:
//!
//! * **L0** — 1024 slots of 1 ms each. An event whose `at` falls inside the
//!   current 1024 ms window indexes a slot directly with `at & 1023`.
//!   Because a slot within one window corresponds to exactly one `at`,
//!   FIFO order within a slot *is* `seq` order (sequence numbers are
//!   assigned in push order).
//! * **L1** — 512 slots of 1024 ms each, covering the next ~8.7 minutes.
//!   A slot holds events for exactly one future L0 window; when the
//!   wheel's cursor enters that window the slot is cascaded into L0.
//! * **Overflow** — everything farther out sits in a `BTreeMap` keyed by
//!   `(at, seq)` and is drained into the wheels when the cursor crosses
//!   into its L1 window.
//!
//! ## Ordering contract
//!
//! [`TimerWheel::pop_at_most`] always yields the *minimum pending*
//! `(at, seq)` key. `seq` keys need not arrive in push order (the sharded
//! engine assigns per-origin keys, so a later push may carry a smaller
//! key): an L0 slot keeps its entries sorted by binary-search insertion,
//! an L1 slot is cascaded exactly once — on cursor entry, *before* any
//! direct push can target that window — and the overflow drain walks its
//! `BTreeMap` in `(at, seq)` order. When every key is pushed in ascending
//! order this degenerates to the classic FIFO wheel and pops are
//! byte-identical to the binary heap the wheel replaced (the property
//! test in `tests/` drives both against each other).
//!
//! ## Past pushes
//!
//! The wheel cannot represent times behind its cursor. The engine never
//! schedules into the past (every event is pushed at `now + delay`), so
//! [`TimerWheel::push`] clamps `at` up to the cursor and debug-asserts —
//! a clamp firing outside tests indicates a world-builder bug.

use std::collections::{BTreeMap, VecDeque};

/// log2 of the L0 span: 1024 slots × 1 ms.
const L0_BITS: u32 = 10;
/// log2 of the L1 slot count: 512 slots × 1024 ms.
const L1_BITS: u32 = 9;
const L0_SLOTS: usize = 1 << L0_BITS;
const L1_SLOTS: usize = 1 << L1_BITS;
const L0_MASK: u64 = (L0_SLOTS as u64) - 1;
const L1_MASK: u64 = (L1_SLOTS as u64) - 1;

/// Min-scheduler over `(at, seq)` keys (ms-granularity sim time plus a
/// strictly increasing sequence number for same-time ties).
pub struct TimerWheel<T> {
    /// All stored events have `at >= cursor`.
    cursor: u64,
    len: usize,
    /// L0 slot: `(seq, item)` kept in ascending-seq order (sorted
    /// insertion); all entries share the same `at`. Drained deques keep
    /// their capacity.
    l0: Vec<VecDeque<(u64, T)>>,
    l0_occ: [u64; L0_SLOTS / 64],
    /// L1 slot: `(at, seq, item)` for one future L0 window, in push order.
    l1: Vec<Vec<(u64, u64, T)>>,
    l1_occ: [u64; L1_SLOTS / 64],
    overflow: BTreeMap<(u64, u64), T>,
    /// Free list of drained L1 slot buffers. A cascade drains a slot's
    /// vector; instead of dropping the buffer (and paying a fresh
    /// allocation the next time any slot in that window fills), the empty
    /// buffer parks here and the next L1 push into a capacity-less slot
    /// adopts it. Steady-state cascading therefore allocates nothing.
    l1_spare: Vec<Vec<(u64, u64, T)>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("cursor", &self.cursor)
            .field("len", &self.len)
            .field("overflow_len", &self.overflow.len())
            .finish()
    }
}

impl<T> TimerWheel<T> {
    /// Empty wheel with its cursor at time 0.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            len: 0,
            l0: (0..L0_SLOTS).map(|_| VecDeque::new()).collect(),
            l0_occ: [0; L0_SLOTS / 64],
            l1: (0..L1_SLOTS).map(|_| Vec::new()).collect(),
            l1_occ: [0; L1_SLOTS / 64],
            overflow: BTreeMap::new(),
            l1_spare: Vec::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` at `(at, seq)`. `seq` values must be distinct but
    /// may arrive in any order (the engine derives them from per-origin
    /// counters). `at` values behind the cursor are clamped up to it.
    // One call per scheduled event.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.cursor, "push into the past: {at} < cursor");
        let at = at.max(self.cursor);
        self.len += 1;
        self.place(at, seq, item);
    }

    /// Route an event with `at >= cursor` into the right layer.
    // Layer routing for every push and every cascade.
    fn place(&mut self, at: u64, seq: u64, item: T) {
        if at >> L0_BITS == self.cursor >> L0_BITS {
            let slot = (at & L0_MASK) as usize;
            let q = &mut self.l0[slot];
            // Ascending pushes append; a smaller key (another origin's
            // counter) binary-searches its slot position.
            if q.back().is_none_or(|(s, _)| *s < seq) {
                q.push_back((seq, item));
            } else {
                let pos = q.partition_point(|(s, _)| *s < seq);
                q.insert(pos, (seq, item));
            }
            self.l0_occ[slot / 64] |= 1 << (slot % 64);
        } else if at >> (L0_BITS + L1_BITS) == self.cursor >> (L0_BITS + L1_BITS) {
            let slot = ((at >> L0_BITS) & L1_MASK) as usize;
            if self.l1[slot].capacity() == 0 {
                if let Some(buf) = self.l1_spare.pop() {
                    self.l1[slot] = buf;
                }
            }
            self.l1[slot].push((at, seq, item));
            self.l1_occ[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.insert((at, seq), item);
        }
    }

    /// First occupied L0 slot index at or after `from`, if any.
    // Bitmap scan on every pop.
    fn l0_next_occupied(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.l0_occ[word] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == self.l0_occ.len() {
                return None;
            }
            bits = self.l0_occ[word];
        }
    }

    /// Pop the earliest event if its time is `<= until`. Yields ascending
    /// `(at, seq)` across calls; pushes made between pops (the engine
    /// pushes while dispatching, including at the current time) slot into
    /// that order exactly as the binary heap did.
    // One call per event the engine dispatches.
    pub fn pop_at_most(&mut self, until: u64) -> Option<(u64, u64, T)> {
        if self.len == 0 || self.cursor > until {
            return None;
        }
        loop {
            if let Some(slot) = self.l0_next_occupied((self.cursor & L0_MASK) as usize) {
                let at = (self.cursor & !L0_MASK) | slot as u64;
                if at > until {
                    // Nothing in [cursor, until]; `until` sits in this
                    // same window (cursor <= until < at), so the jump
                    // crosses no cascade boundary.
                    self.cursor = until;
                    return None;
                }
                let q = &mut self.l0[slot];
                let (seq, item) = q.pop_front().expect("occupancy bit set on empty slot");
                if q.is_empty() {
                    self.l0_occ[slot / 64] &= !(1 << (slot % 64));
                }
                self.len -= 1;
                // Do not advance past `at`: dispatching this event may
                // push more work at the same time (zero-delay timers),
                // which must land back in this slot behind higher seqs.
                self.cursor = at;
                return Some((at, seq, item));
            }
            // Current L0 window exhausted.
            let window_end = self.cursor | L0_MASK;
            if until <= window_end {
                self.cursor = until;
                return None;
            }
            self.advance_window(window_end + 1);
        }
    }

    /// Key of the earliest event if its time is `<= until`, without
    /// removing it. Advances the cursor (and cascades) exactly like
    /// [`TimerWheel::pop_at_most`], so the sharded engine can bound a
    /// shard's cursor to the current barrier epoch while scanning heads.
    // Head refresh for the cross-shard merge loop.
    pub fn peek_at_most(&mut self, until: u64) -> Option<(u64, u64)> {
        if self.len == 0 || self.cursor > until {
            return None;
        }
        loop {
            if let Some(slot) = self.l0_next_occupied((self.cursor & L0_MASK) as usize) {
                let at = (self.cursor & !L0_MASK) | slot as u64;
                if at > until {
                    self.cursor = until;
                    return None;
                }
                self.cursor = at;
                let (seq, _) = self.l0[slot]
                    .front()
                    .expect("occupancy bit set on empty slot");
                return Some((at, *seq));
            }
            let window_end = self.cursor | L0_MASK;
            if until <= window_end {
                self.cursor = until;
                return None;
            }
            self.advance_window(window_end + 1);
        }
    }

    /// Visit every pending event as `(at, seq, &item)` without disturbing
    /// the wheel — snapshot support. The visit order is a deterministic
    /// function of the wheel's layout (L0 slots ascending, then L1 slots
    /// ascending in push order, then overflow in key order), **not** time
    /// order: a restore re-pushes the events into a fresh wheel, which
    /// re-establishes `(at, seq)` pop order regardless of visit order.
    pub fn for_each_pending<F: FnMut(u64, u64, &T)>(&self, mut f: F) {
        // Every occupied L0 slot belongs to the cursor's window (stale
        // slots can't survive: pops drain ascending and window advance
        // only happens once the window is empty), so the slot index
        // recovers the full `at`.
        let window_base = self.cursor & !L0_MASK;
        for slot in 0..L0_SLOTS {
            if self.l0_occ[slot / 64] & (1 << (slot % 64)) == 0 {
                continue;
            }
            let at = window_base | slot as u64;
            for (seq, item) in &self.l0[slot] {
                f(at, *seq, item);
            }
        }
        for slot in 0..L1_SLOTS {
            if self.l1_occ[slot / 64] & (1 << (slot % 64)) == 0 {
                continue;
            }
            for (at, seq, item) in &self.l1[slot] {
                f(*at, *seq, item);
            }
        }
        for ((at, seq), item) in &self.overflow {
            f(*at, *seq, item);
        }
    }

    /// Time of the earliest pending event, touching neither the cursor nor
    /// the layers — a pure read. The barrier scheduler uses this to pick
    /// the next epoch start without committing any shard's cursor past a
    /// time other shards may still push to.
    pub fn min_pending_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // The layers hold strictly increasing time ranges: L0 covers the
        // cursor's window, L1 the rest of its epoch, overflow everything
        // beyond — so the first non-empty layer owns the minimum.
        if let Some(slot) = self.l0_next_occupied((self.cursor & L0_MASK) as usize) {
            return Some((self.cursor & !L0_MASK) | slot as u64);
        }
        let l1_from = (((self.cursor >> L0_BITS) & L1_MASK) as usize + 1).min(L1_SLOTS);
        let mut word = l1_from / 64;
        let mut bits = if word < self.l1_occ.len() {
            self.l1_occ[word] & (u64::MAX.checked_shl((l1_from % 64) as u32).unwrap_or(0))
        } else {
            0
        };
        loop {
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let at = self.l1[slot]
                    .iter()
                    .map(|(at, _, _)| *at)
                    .min()
                    .expect("occupancy bit set on empty L1 slot");
                return Some(at);
            }
            word += 1;
            if word >= self.l1_occ.len() {
                break;
            }
            bits = self.l1_occ[word];
        }
        self.overflow.keys().next().map(|(at, _)| *at)
    }

    /// Move the cursor to `window_start` (the first ms of the next L0
    /// window), pulling newly in-range overflow events and cascading the
    /// window's L1 slot into L0.
    // Wheel cascade; runs on every L0 window rollover.
    fn advance_window(&mut self, window_start: u64) {
        let old = self.cursor;
        self.cursor = window_start;
        if window_start >> (L0_BITS + L1_BITS) != old >> (L0_BITS + L1_BITS) {
            // New L1 epoch: route the overflow events that now fit the
            // wheels. BTreeMap iteration gives (at, seq) order, so
            // same-`at` runs arrive in ascending seq.
            let bound = ((window_start >> (L0_BITS + L1_BITS)) + 1) << (L0_BITS + L1_BITS);
            let rest = self.overflow.split_off(&(bound, 0));
            let in_range = std::mem::replace(&mut self.overflow, rest);
            for ((at, seq), item) in in_range {
                self.place(at, seq, item);
            }
        }
        let slot = ((window_start >> L0_BITS) & L1_MASK) as usize;
        if self.l1_occ[slot / 64] & (1 << (slot % 64)) != 0 {
            self.l1_occ[slot / 64] &= !(1 << (slot % 64));
            // Cascading only places into L0 (every event in this slot
            // belongs to the window just entered), so the slot's buffer can
            // be drained in place and recycled through the free list.
            let mut pending = std::mem::take(&mut self.l1[slot]);
            for (at, seq, item) in pending.drain(..) {
                debug_assert_eq!(at >> L0_BITS, window_start >> L0_BITS);
                self.place(at, seq, item);
            }
            self.l1_spare.push(pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimerWheel<u32>, until: u64) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_at_most(until) {
            out.push(e);
        }
        out
    }

    #[test]
    fn for_each_pending_rebuild_preserves_pop_order() {
        // Spread events across all three layers, advance the cursor
        // mid-window, then prove enumerate + re-push into a fresh wheel
        // pops the identical sequence the original would have.
        let mut w = TimerWheel::new();
        let ats = [3u64, 3, 700, 1_500, 5_000, 600_000, 2_000_000];
        for (i, &at) in ats.iter().enumerate() {
            w.push(at, i as u64 + 1, i as u32);
        }
        // Pop the two earliest so the cursor sits mid-window with
        // partially drained slots.
        assert_eq!(w.pop_at_most(10).map(|e| e.0), Some(3));
        assert_eq!(w.pop_at_most(10).map(|e| e.0), Some(3));

        let mut rebuilt = TimerWheel::new();
        let mut n = 0usize;
        w.for_each_pending(|at, seq, item| {
            rebuilt.push(at, seq, *item);
            n += 1;
        });
        assert_eq!(n, w.len());
        assert_eq!(rebuilt.len(), w.len());
        assert_eq!(
            drain_all(&mut rebuilt, u64::MAX),
            drain_all(&mut w, u64::MAX)
        );
    }

    #[test]
    fn pops_in_at_seq_order() {
        let mut w = TimerWheel::new();
        w.push(30, 0, 1);
        w.push(10, 1, 2);
        w.push(20, 2, 3);
        w.push(10, 3, 4); // same time as seq 1: ties break by seq
        assert_eq!(w.len(), 4);
        assert_eq!(
            drain_all(&mut w, 100),
            vec![(10, 1, 2), (10, 3, 4), (20, 2, 3), (30, 0, 1)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn until_bound_is_inclusive_and_resumable() {
        let mut w = TimerWheel::new();
        w.push(5, 0, 10);
        w.push(7, 1, 11);
        w.push(9, 2, 12);
        assert_eq!(drain_all(&mut w, 7), vec![(5, 0, 10), (7, 1, 11)]);
        assert_eq!(w.len(), 1);
        assert_eq!(drain_all(&mut w, 8), vec![]);
        assert_eq!(drain_all(&mut w, 9), vec![(9, 2, 12)]);
    }

    #[test]
    fn same_time_pushes_between_pops_keep_seq_order() {
        // A zero-delay timer: dispatching the event at t pushes another
        // event at t, which must pop next.
        let mut w = TimerWheel::new();
        w.push(50, 0, 1);
        w.push(50, 1, 2);
        assert_eq!(w.pop_at_most(1_000), Some((50, 0, 1)));
        w.push(50, 2, 3);
        assert_eq!(w.pop_at_most(1_000), Some((50, 1, 2)));
        assert_eq!(w.pop_at_most(1_000), Some((50, 2, 3)));
        assert_eq!(w.pop_at_most(1_000), None);
    }

    #[test]
    fn crosses_l0_windows_and_cascades_l1() {
        let mut w = TimerWheel::new();
        // Spread events across several L0 windows inside one L1 epoch.
        let times = [3u64, 1_024, 1_030, 5_000, 250_000, 250_001];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, i as u32);
        }
        let got = drain_all(&mut w, 300_000);
        let ats: Vec<u64> = got.iter().map(|e| e.0).collect();
        assert_eq!(ats, vec![3, 1_024, 1_030, 5_000, 250_000, 250_001]);
    }

    #[test]
    fn far_future_overflow_drains_in_order() {
        let mut w = TimerWheel::new();
        // Beyond the L1 horizon (2^19 ms ≈ 524 s): these live in overflow.
        w.push(2_000_000, 0, 1);
        w.push(600_000, 1, 2);
        w.push(2_000_000, 2, 3);
        w.push(5, 3, 4);
        let got = drain_all(&mut w, 3_000_000);
        assert_eq!(
            got,
            vec![
                (5, 3, 4),
                (600_000, 1, 2),
                (2_000_000, 0, 1),
                (2_000_000, 2, 3)
            ]
        );
    }

    #[test]
    fn pop_is_none_when_head_is_beyond_until() {
        let mut w = TimerWheel::new();
        w.push(10_000, 0, 1);
        assert_eq!(w.pop_at_most(9_999), None);
        assert_eq!(w.len(), 1);
        // Pushing nearer work after a bounded pop still works.
        w.push(9_999, 1, 2);
        assert_eq!(w.pop_at_most(10_000), Some((9_999, 1, 2)));
        assert_eq!(w.pop_at_most(10_000), Some((10_000, 0, 1)));
    }

    #[test]
    fn empty_wheel_pops_none_at_any_bound() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.pop_at_most(0), None);
        assert_eq!(w.pop_at_most(u64::MAX / 2), None);
        assert!(w.is_empty());
    }

    #[test]
    fn out_of_order_keys_in_one_slot_pop_sorted() {
        // Per-origin keys: a later push may carry a smaller key for the
        // same `at`; the slot must keep ascending-key order.
        let mut w = TimerWheel::new();
        w.push(40, 500, 1);
        w.push(40, 7, 2);
        w.push(40, 900, 3);
        w.push(40, 100, 4);
        assert_eq!(
            drain_all(&mut w, 100),
            vec![(40, 7, 2), (40, 100, 4), (40, 500, 1), (40, 900, 3)]
        );
    }

    #[test]
    fn smaller_key_pushed_after_pop_at_same_time_pops_next() {
        // Popping (50, 10) then receiving (50, 3) from a different origin
        // must yield the new event before (50, 20).
        let mut w = TimerWheel::new();
        w.push(50, 10, 1);
        w.push(50, 20, 2);
        assert_eq!(w.pop_at_most(1_000), Some((50, 10, 1)));
        w.push(50, 3, 3);
        assert_eq!(w.pop_at_most(1_000), Some((50, 3, 3)));
        assert_eq!(w.pop_at_most(1_000), Some((50, 20, 2)));
    }

    #[test]
    fn peek_does_not_consume_and_respects_bound() {
        let mut w = TimerWheel::new();
        w.push(30, 0, 1);
        w.push(2_500, 1, 2);
        assert_eq!(w.peek_at_most(20), None);
        assert_eq!(w.peek_at_most(100), Some((30, 0)));
        assert_eq!(w.peek_at_most(100), Some((30, 0))); // still there
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop_at_most(100), Some((30, 0, 1)));
        // The next head sits in a later L0 window: peeking cascades to it.
        assert_eq!(w.peek_at_most(10_000), Some((2_500, 1)));
        assert_eq!(w.pop_at_most(10_000), Some((2_500, 1, 2)));
        assert!(w.is_empty());
        assert_eq!(w.peek_at_most(20_000), None);
    }

    #[test]
    fn min_pending_at_reads_all_layers_without_moving_the_cursor() {
        let mut w = TimerWheel::new();
        assert_eq!(w.min_pending_at(), None);
        // Overflow only.
        w.push(2_000_000, 0, 1);
        assert_eq!(w.min_pending_at(), Some(2_000_000));
        // L1 beats overflow.
        w.push(5_000, 1, 2);
        assert_eq!(w.min_pending_at(), Some(5_000));
        // L0 beats both.
        w.push(17, 2, 3);
        assert_eq!(w.min_pending_at(), Some(17));
        // The read is pure: a later push at an earlier time still lands
        // ahead of the reported minimum (the cursor did not advance).
        w.push(4, 3, 4);
        assert_eq!(w.min_pending_at(), Some(4));
        assert_eq!(w.pop_at_most(10_000), Some((4, 3, 4)));
        assert_eq!(w.pop_at_most(10_000), Some((17, 2, 3)));
        assert_eq!(w.min_pending_at(), Some(5_000));
        assert_eq!(w.pop_at_most(10_000), Some((5_000, 1, 2)));
        assert_eq!(w.min_pending_at(), Some(2_000_000));
    }

    /// Pre-arena pin: with L1 buffers recycled through the free list, an
    /// interleaved push/pop workload spanning many cascades must dispatch
    /// in exactly the `(at, seq)` order of a reference binary heap — the
    /// scheduler the wheel originally replaced.
    #[test]
    fn cascade_recycling_reproduces_reference_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..2_000u32 {
            // A burst of pushes at mixed horizons: same-window, L1-range,
            // and overflow-range targets, so cascades recycle constantly.
            for _ in 0..3 {
                let horizon = match next(10) {
                    0..=5 => next(900),             // L0 window
                    6..=8 => 1_000 + next(500_000), // L1 range
                    _ => 600_000 + next(2_000_000), // overflow
                };
                let at = now + horizon;
                wheel.push(at, seq, round);
                heap.push(Reverse((at, seq, round)));
                seq += 1;
            }
            now += next(3_000);
            loop {
                let got = wheel.pop_at_most(now);
                let want = match heap.peek() {
                    Some(Reverse((at, _, _))) if *at <= now => heap.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                assert_eq!(got, want, "divergence at round {round} now {now}");
                if got.is_none() {
                    break;
                }
            }
        }
        // Drain the tails against each other too.
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(wheel.pop_at_most(u64::MAX / 2), Some(want));
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn drained_l1_buffers_are_recycled_not_dropped() {
        let mut w = TimerWheel::new();
        // Fill one L1 slot, cascade it, and check the buffer parked in the
        // free list with its capacity intact.
        for i in 0..32u64 {
            w.push(5_000, i, i as u32);
        }
        assert!(w.l1_spare.is_empty());
        while w.pop_at_most(10_000).is_some() {}
        assert_eq!(w.l1_spare.len(), 1);
        let cap = w.l1_spare[0].capacity();
        assert!(cap >= 32, "recycled buffer lost its capacity");
        // The next L1 push adopts the spare buffer instead of allocating.
        w.push(20_000, 99, 7);
        assert!(w.l1_spare.is_empty());
        let slot = ((20_000u64 >> L0_BITS) & L1_MASK) as usize;
        assert!(w.l1[slot].capacity() >= 32);
    }

    #[test]
    fn window_boundary_times_route_correctly() {
        let mut w = TimerWheel::new();
        // Exactly at the L0 window edge (1023/1024) and the L1 horizon
        // edge (2^19 - 1 / 2^19).
        for (i, t) in [1_023u64, 1_024, (1 << 19) - 1, 1 << 19].iter().enumerate() {
            w.push(*t, i as u64, i as u32);
        }
        let ats: Vec<u64> = drain_all(&mut w, 1 << 20).iter().map(|e| e.0).collect();
        assert_eq!(ats, vec![1_023, 1_024, (1 << 19) - 1, 1 << 19]);
    }
}
