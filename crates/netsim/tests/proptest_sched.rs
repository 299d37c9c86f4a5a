//! Property test: the event queue pops exactly what a linear scan for the
//! minimum `(at, key)` pops.
//!
//! The engine's determinism guarantee ("same seed ⇒ byte-identical run")
//! rests entirely on the scheduler yielding events in exactly ascending
//! `(at, key)` order, including under the awkward shapes a live sim
//! produces: bursts of same-`at` events, pushes interleaved between pops
//! at the current time (zero-delay timers), far-future events, keys that
//! arrive out of order, and `run_until` slices that stop between events.
//! This test drives the queue and a `Vec` model — nothing heap-shaped —
//! through arbitrary interleavings of those shapes and requires identical
//! pop streams.

use netsim::sched::EventQueue;
use proptest::prelude::*;

type Event = (u64, u64, u32);

/// The oracle: remove the minimum `(at, key)` of an unordered `Vec` by
/// linear scan, if its time is `<= until`.
fn scan_pop(model: &mut Vec<Event>, until: u64) -> Option<Event> {
    let i = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
    (model[i].0 <= until).then(|| model.swap_remove(i))
}

/// One step of the driver script.
#[derive(Debug, Clone)]
enum Op {
    /// Push `n` events `delay` ms after the current virtual time.
    Push { delay: u64, n: usize },
    /// Drain everything up to `current + span`, advancing time.
    Drain { span: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! picks uniformly, so weights are expressed
    // by repeating entries.
    prop_oneof![
        // Near-future pushes dominate, like real sim traffic. Delay 0
        // exercises the "push at the time being drained" path.
        (0u64..50).prop_map(|delay| Op::Push { delay, n: 1 }),
        (0u64..50).prop_map(|delay| Op::Push { delay, n: 1 }),
        // A same-`at` burst.
        (0u64..50, 2usize..40).prop_map(|(delay, n)| Op::Push { delay, n }),
        // Second-scale, minute-scale and far-future delays (≤ 2·10⁶ ms).
        (900u64..3_000).prop_map(|delay| Op::Push { delay, n: 1 }),
        (900u64..600_000).prop_map(|delay| Op::Push { delay, n: 1 }),
        (500_000u64..2_000_000).prop_map(|delay| Op::Push { delay, n: 1 }),
        (0u64..2_000).prop_map(|span| Op::Drain { span }),
        (0u64..2_000).prop_map(|span| Op::Drain { span }),
        (100_000u64..1_500_000).prop_map(|span| Op::Drain { span }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_linear_scan_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (mut queue, mut model) = (EventQueue::new(), Vec::new());
        // Keys arrive out of order, like the engine's per-origin keys:
        // each is the bit-reversed push count.
        let mut pushed = 0u32;
        let mut push = move |queue: &mut EventQueue<u32>, model: &mut Vec<Event>, at: u64| {
            pushed += 1;
            let key = u64::from(pushed).reverse_bits();
            queue.push(at, key, pushed);
            model.push((at, key, pushed));
        };
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Push { delay, n } => {
                    for _ in 0..n {
                        push(&mut queue, &mut model, now + delay);
                    }
                }
                Op::Drain { span } => {
                    let until = now + span;
                    loop {
                        let got = queue.pop_at_most(until);
                        prop_assert_eq!(got, scan_pop(&mut model, until), "draining to {}", until);
                        let Some((at, key, _)) = got else { break };
                        now = at;
                        // Like the engine: dispatching may push same-time
                        // follow-ups, which must interleave identically.
                        if key % 5 == 0 {
                            push(&mut queue, &mut model, now);
                        }
                    }
                    now = until;
                    prop_assert_eq!(queue.len(), model.len());
                }
            }
        }

        // Final total drain: both must empty in the same order.
        loop {
            let got = queue.pop_at_most(u64::MAX);
            prop_assert_eq!(got, scan_pop(&mut model, u64::MAX), "in the final drain");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }
}
