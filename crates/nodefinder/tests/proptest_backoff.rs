//! Property tests for the dial backoff policy and penalty box.

// Tests assert on impossible-failure paths freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enode::{Endpoint, NodeId, NodeRecord};
use nodefinder::{BackoffPolicy, PenaltyBox};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

fn arb_policy() -> impl Strategy<Value = BackoffPolicy> {
    (100u64..60_000, 1u64..32, 0u64..5_000).prop_map(|(base_ms, cap_mult, jitter_ms)| {
        BackoffPolicy {
            base_ms,
            cap_ms: base_ms.saturating_mul(cap_mult),
            jitter_ms,
        }
    })
}

fn rec(tag: u8) -> NodeRecord {
    NodeRecord::new(
        NodeId([tag; 64]),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, tag), 30303),
    )
}

proptest! {
    /// The raw delay never shrinks as failures accumulate.
    #[test]
    fn raw_delay_is_monotone(policy in arb_policy(), failures in 1u32..80) {
        prop_assert!(policy.raw_delay_ms(failures) <= policy.raw_delay_ms(failures + 1));
    }

    /// The cap is respected for every failure count, including counts
    /// large enough to overflow a naive `base << failures`.
    #[test]
    fn cap_is_respected(policy in arb_policy(), failures in 1u32..10_000) {
        prop_assert!(policy.raw_delay_ms(failures) <= policy.cap_ms.max(policy.base_ms));
    }

    /// Jitter stays inside its bound: the jittered delay is in
    /// `[raw, raw + jitter_ms)`.
    #[test]
    fn jitter_is_bounded(policy in arb_policy(), failures in 1u32..80, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = policy.raw_delay_ms(failures);
        let jittered = policy.delay_ms(failures, &mut rng);
        prop_assert!(jittered >= raw);
        prop_assert!(jittered < raw + policy.jitter_ms.max(1));
    }

    /// A fixed RNG seed reproduces the exact same delay sequence — the
    /// property that keeps whole crawls byte-identical across runs.
    #[test]
    fn delays_are_deterministic_for_a_fixed_seed(policy in arb_policy(), seed in any::<u64>()) {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for failures in 1..20 {
            prop_assert_eq!(policy.delay_ms(failures, &mut a), policy.delay_ms(failures, &mut b));
        }
    }

    /// The box engages exactly at the threshold, never before.
    #[test]
    fn box_engages_exactly_at_threshold(threshold in 1u32..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pb = PenaltyBox::new(BackoffPolicy::default(), threshold, 600_000);
        for n in 1..=threshold {
            pb.record_failure(rec(1), u64::from(n) * 1_000, &mut rng);
            prop_assert_eq!(pb.boxed_total(), u64::from(n == threshold));
        }
    }

    /// Success wipes an endpoint's slate no matter how deep in backoff
    /// it was.
    #[test]
    fn success_always_clears(failures in 1u32..20, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pb = PenaltyBox::new(BackoffPolicy::default(), 5, 600_000);
        let id = rec(1).id;
        for n in 0..failures {
            pb.record_failure(rec(1), u64::from(n) * 1_000, &mut rng);
        }
        pb.record_success(&id);
        prop_assert_eq!(pb.failures(&id), 0);
        prop_assert!(!pb.is_blocked(&id, 0));
        prop_assert_eq!(pb.tracked(), 0);
    }

    /// Every due endpoint is handed out exactly once per backoff period,
    /// in ascending `NodeId` order, regardless of how the handout is
    /// batched or in which order the endpoints failed.
    #[test]
    fn due_retries_hand_out_each_endpoint_once(
        n_endpoints in 1usize..30,
        batch in 1usize..8,
        rotate in 0usize..30,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pb = PenaltyBox::new(
            BackoffPolicy { jitter_ms: 0, ..BackoffPolicy::default() },
            100,
            600_000,
        );
        // Fail the endpoints in an order that is not their id order.
        for t in 0..n_endpoints {
            let tag = (t + rotate) % n_endpoints;
            pb.record_failure(rec(tag as u8 + 1), 0, &mut rng);
        }
        let mut handed = Vec::new();
        loop {
            let due = pb.due_retries(u64::MAX / 2, batch);
            if due.is_empty() {
                break;
            }
            prop_assert!(due.len() <= batch);
            handed.extend(due.into_iter().map(|r| r.id));
        }
        prop_assert!(
            handed.windows(2).all(|w| w[0] < w[1]),
            "an endpoint was handed out twice or out of NodeId order"
        );
        prop_assert_eq!(handed.len(), n_endpoints);
    }

    /// `next_due_ms` always matches the earliest non-in-flight deadline,
    /// and `is_blocked` agrees with it.
    #[test]
    fn next_due_is_consistent_with_blocking(
        times in proptest::collection::vec(0u64..100_000, 1..12),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pb = PenaltyBox::new(BackoffPolicy::default(), 100, 600_000);
        let mut deadlines = Vec::new();
        for (i, t) in times.iter().enumerate() {
            deadlines.push(pb.record_failure(rec(i as u8 + 1), *t, &mut rng));
        }
        prop_assert_eq!(pb.next_due_ms(), deadlines.iter().copied().min());
        for (i, d) in deadlines.iter().enumerate() {
            let id = rec(i as u8 + 1).id;
            prop_assert!(pb.is_blocked(&id, d.saturating_sub(1)));
            prop_assert!(!pb.is_blocked(&id, *d));
        }
    }

    /// Two boxes fed the same operations from identically seeded RNGs
    /// agree on every jittered deadline, every handout and every counter —
    /// the property that keeps a resumed crawl on the original's schedule.
    #[test]
    fn same_ops_same_seed_same_deadlines(
        ops in proptest::collection::vec((0u8..4, 0u8..24, 0u64..30_000, 0usize..10), 1..120),
        threshold in 1u32..6,
        seed in any::<u64>(),
    ) {
        let mut a = PenaltyBox::new(BackoffPolicy::default(), threshold, 600_000);
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut now = 0u64;
        for (kind, idx, dt, limit) in ops {
            let r = rec(idx + 1);
            match kind {
                0 | 1 => {
                    now += dt;
                    prop_assert_eq!(
                        a.record_failure(r, now, &mut rng_a),
                        b.record_failure(r, now, &mut rng_b)
                    );
                }
                2 => {
                    a.record_success(&r.id);
                    b.record_success(&r.id);
                }
                _ => {
                    now += dt * 10;
                    prop_assert_eq!(a.due_retries(now, limit), b.due_retries(now, limit));
                }
            }
            prop_assert_eq!(a.is_blocked(&r.id, now), b.is_blocked(&r.id, now));
            prop_assert_eq!(a.failures(&r.id), b.failures(&r.id));
            prop_assert_eq!(a.boxed_now(now), b.boxed_now(now));
            prop_assert_eq!(a.next_due_ms(), b.next_due_ms());
            prop_assert_eq!(&a, &b);
        }
    }
}
