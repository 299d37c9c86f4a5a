//! Properties of NodeFinder's dial policy (§4).
//!
//! The suite drives a `DialPolicy` with arbitrary sequences of
//! sightings, probe results and ticks, as the crawler would: every dial a
//! tick returns becomes a live probe in a harness-side model, and a
//! result finishes one of those (or an incoming connection). After every
//! input it checks the rules the policy's docs state: the dial slots,
//! backoff, the static list's membership, order and staleness, and the
//! own-address rule.

// Tests assert on impossible-failure paths freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enode::{Endpoint, NodeId, NodeRecord};
use netsim::HostAddr;
use nodefinder::{BackoffPolicy, ConnType, CrawlerConfig, DialPolicy, Sighting};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Distinct nodes in play; tag 0 sits at the crawler's own address.
const TAGS: u8 = 8;
/// Tags the policy starts with as bootstrap nodes.
const BOOTSTRAP: [u8; 2] = [1, 2];

/// Node `tag`: ids ascend with tags, each at its own address.
fn rec(tag: u8) -> NodeRecord {
    NodeRecord::new(
        NodeId([tag + 1; 64]),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, tag), 30303),
    )
}

/// The crawler's own address: tag 0's.
fn local() -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 0, 0, 0), 30303)
}

#[derive(Debug, Clone)]
enum Input {
    /// Discovery sighted a node.
    Sight(u8),
    /// The live probe at this index (modulo their number) finished,
    /// answered or not.
    Finish(usize, bool),
    /// An incoming probe finished, its peer's id known or not.
    Incoming(Option<u8>, bool),
    DialTick,
    StaticTick,
}

/// An input and the sim time, ms, that passes before it.
fn arb_input() -> impl Strategy<Value = (Input, u64)> {
    (0u8..6, 0u8..TAGS, any::<bool>(), 0usize..16, 0u64..3_000).prop_map(
        |(kind, tag, flag, idx, dt)| {
            let input = match kind {
                0 => Input::Sight(tag),
                1 => Input::Finish(idx, flag),
                2 => Input::Incoming((idx % 4 != 0).then_some(tag), flag),
                3 | 4 => Input::DialTick,
                _ => Input::StaticTick,
            };
            (input, dt)
        },
    )
}

fn arb_config() -> impl Strategy<Value = CrawlerConfig> {
    (
        1usize..4,
        2_000u64..20_000,
        5_000u64..60_000,
        0u64..600,
        1u32..4,
        5_000u64..30_000,
    )
        .prop_map(
            |(dials, redial, stale, jitter, threshold, box_ms)| CrawlerConfig {
                max_active_dials: dials,
                static_redial_interval_ms: redial,
                stale_after_ms: stale,
                backoff: BackoffPolicy {
                    base_ms: 1_000,
                    cap_ms: 8_000,
                    jitter_ms: jitter,
                },
                penalty_threshold: threshold,
                penalty_box_ms: box_ms,
                ..CrawlerConfig::default()
            },
        )
}

/// The policy under test beside the harness's model of it.
struct Harness {
    config: CrawlerConfig,
    policy: DialPolicy,
    rng: StdRng,
    now: u64,
    /// Dials the policy returned whose result has not come back.
    live: Vec<(NodeRecord, ConnType)>,
    /// When each node last joined or refreshed the static list.
    last_answer: BTreeMap<NodeId, u64>,
}

impl Harness {
    fn new(config: CrawlerConfig, seed: u64) -> Harness {
        let mut policy = DialPolicy::new(&config);
        let mut last_answer = BTreeMap::new();
        for tag in BOOTSTRAP {
            policy.add_bootstrap(rec(tag), 0);
            last_answer.insert(rec(tag).id, 0);
        }
        Harness {
            config,
            policy,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            live: Vec::new(),
            last_answer,
        }
    }

    fn live_dynamic(&self) -> usize {
        self.live
            .iter()
            .filter(|(_, t)| *t == ConnType::DynamicDial)
            .count()
    }

    /// A finished probe, checked against the slate rule and the static
    /// list's join rule.
    fn result(
        &mut self,
        record: Option<NodeRecord>,
        conn_type: ConnType,
        responded: bool,
    ) -> Result<(), TestCaseError> {
        let now = self.now;
        self.policy
            .on_result(record, conn_type, responded, now, &mut self.rng);
        if let (Some(r), true) = (record, responded) {
            self.last_answer.insert(r.id, now);
            prop_assert_eq!(self.policy.failures(&r.id), 0, "an answer wipes the slate");
            prop_assert!(!self.policy.is_blocked(&r.id, now));
            prop_assert!(
                self.policy.is_static(&r.id),
                "an answer joins the static list, incoming too"
            );
        }
        Ok(())
    }

    /// A tick's dials, checked; then they go live.
    fn tick(&mut self, is_static: bool) -> Result<(), TestCaseError> {
        let now = self.now;
        let blocked: Vec<NodeId> = (0..TAGS)
            .map(|t| rec(t).id)
            .filter(|id| self.policy.is_blocked(id, now))
            .collect();
        let dials = if is_static {
            self.policy.on_static_tick(now, local())
        } else {
            self.policy.on_dial_tick(now, local())
        };
        let mut statics = Vec::new();
        for (record, conn_type) in &dials {
            // Dynamic dials are not checked: a node sighted into the
            // queue while its retry is in flight is popped after that
            // retry fails, blocked (ROADMAP item 12).
            prop_assert!(
                *conn_type != ConnType::StaticDial || !blocked.contains(&record.id),
                "a blocked node got a static dial"
            );
            prop_assert!(record.endpoint.ip != local().ip, "dialed our own address");
            prop_assert_eq!(
                *conn_type == ConnType::StaticDial,
                self.policy.is_static(&record.id),
                "a dial is static exactly when its node is"
            );
            if *conn_type == ConnType::StaticDial {
                statics.push(record.id);
            }
        }
        prop_assert!(
            statics.windows(2).all(|w| w[0] < w[1]),
            "static dials out of NodeId order: {:?}",
            statics
        );
        if is_static {
            for (id, at) in &self.last_answer {
                if now.saturating_sub(*at) >= self.config.stale_after_ms {
                    prop_assert!(!self.policy.is_static(id), "a stale entry survived");
                    prop_assert!(!dials.iter().any(|(r, _)| r.id == *id));
                }
            }
        }
        self.live.extend(dials);
        Ok(())
    }

    fn step(&mut self, input: Input, dt: u64) -> Result<(), TestCaseError> {
        self.now += dt;
        match input {
            Input::Sight(tag) => {
                self.policy.on_sighting(rec(tag), self.now);
            }
            Input::Finish(idx, responded) => {
                if !self.live.is_empty() {
                    let (record, conn_type) = self.live.remove(idx % self.live.len());
                    self.result(Some(record), conn_type, responded)?;
                }
            }
            Input::Incoming(tag, responded) => {
                self.result(tag.map(rec), ConnType::Incoming, responded)?;
            }
            Input::DialTick => self.tick(false)?,
            Input::StaticTick => self.tick(true)?,
        }
        prop_assert!(self.live_dynamic() <= self.config.max_active_dials);
        prop_assert_eq!(self.policy.dialing(), self.live_dynamic());
        prop_assert_eq!(self.policy.underflows(), 0);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every rule in the policy's docs holds after every input.
    #[test]
    fn dial_rules_hold_after_every_input(
        config in arb_config(),
        inputs in proptest::collection::vec(arb_input(), 1..200),
        seed in any::<u64>(),
    ) {
        let mut h = Harness::new(config, seed);
        for (input, dt) in inputs {
            h.step(input, dt)?;
        }
    }

    /// Results, answered or not, leave a slot count the model agrees
    /// with even when every live probe finishes at once.
    #[test]
    fn draining_every_probe_frees_every_slot(
        config in arb_config(),
        inputs in proptest::collection::vec(arb_input(), 1..120),
        responded in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut h = Harness::new(config, seed);
        for (input, dt) in inputs {
            h.step(input, dt)?;
        }
        while !h.live.is_empty() {
            h.step(Input::Finish(0, responded), 0)?;
        }
        prop_assert_eq!(h.policy.dialing(), 0);
    }
}

/// A result for a dynamic dial that holds no slot is counted as an
/// underflow; the slot count stays at zero instead of wrapping, and later
/// accounting is unaffected.
#[test]
fn a_release_without_a_claim_is_counted_not_clamped() {
    let mut policy = DialPolicy::new(&CrawlerConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    for tag in [3, 4] {
        policy.on_sighting(rec(tag), 0);
    }
    assert_eq!(policy.on_dial_tick(500, local()).len(), 2);
    for tag in [3, 4] {
        policy.on_result(Some(rec(tag)), ConnType::DynamicDial, true, 600, &mut rng);
    }
    assert_eq!(
        (policy.dialing(), policy.underflows()),
        (0, 0),
        "balanced pairs are clean"
    );
    policy.on_result(None, ConnType::DynamicDial, false, 700, &mut rng);
    assert_eq!(policy.dialing(), 0, "the count stays at zero");
    assert_eq!(policy.underflows(), 1, "but the underflow is visible");
    policy.on_sighting(rec(5), 800);
    assert_eq!(policy.on_dial_tick(1_000, local()).len(), 1);
    assert_eq!(policy.dialing(), 1, "later accounting is unaffected");
}

/// The dial queue holds at most 4,096 records, its high-water mark. A
/// sighting past that is rejected and not marked queued, so a later
/// sighting of the same node joins once a dial tick has made room.
#[test]
fn a_full_queue_rejects_and_a_later_sighting_retries() {
    let mut policy = DialPolicy::new(&CrawlerConfig {
        max_active_dials: 1,
        ..CrawlerConfig::default()
    });
    let node = |i: u16| {
        let mut id = [0u8; 64];
        id[..2].copy_from_slice(&i.to_be_bytes());
        NodeRecord::new(NodeId(id), Endpoint::new(Ipv4Addr::new(10, 1, 0, 1), i))
    };
    for i in 1..=4_096 {
        assert_eq!(policy.on_sighting(node(i), 0), Sighting::Queued);
    }
    assert_eq!(policy.on_sighting(node(4_097), 0), Sighting::Rejected);
    assert_eq!(policy.on_sighting(node(4_097), 0), Sighting::Rejected);
    assert_eq!(policy.high_water(), 4_096);
    let dials = policy.on_dial_tick(500, local());
    assert_eq!(
        dials,
        vec![(node(1), ConnType::DynamicDial)],
        "oldest first"
    );
    assert_eq!(policy.on_sighting(node(4_097), 600), Sighting::Queued);
    assert_eq!(
        policy.on_sighting(node(2), 600),
        Sighting::Ignored,
        "already queued"
    );
}
