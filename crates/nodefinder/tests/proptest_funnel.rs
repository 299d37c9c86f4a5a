//! The dial funnel is invariant under log order.
//!
//! `DataStore::from_log` folds a crawl log's events, then its conns, into
//! one observation per node; `dial_funnel()` and `failure_totals()` scan
//! the result. Crawler instances merge their logs in whatever order the
//! harness collects them, so the counts must not depend on that order:
//! the suite shuffles both the conns and the events of a random log and
//! asserts the same funnel and failure totals either way.

use enode::NodeId;
use nodefinder::log::{
    ConnLog, ConnOutcome, ConnType, CrawlLog, DialEvent, DialEventKind, FailureClass, HelloInfo,
    StatusInfo,
};
use nodefinder::DataStore;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn nid(tag: u8) -> NodeId {
    NodeId([tag; 64])
}

/// `Some(value)` with probability `num/den` (the vendored proptest has
/// no `prop::option` module).
fn opt<S: Strategy>(num: u8, den: u8, s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..den, s).prop_map(move |(k, v)| if k < num { Some(v) } else { None })
}

fn hello_strategy() -> impl Strategy<Value = HelloInfo> {
    (1u32..=5, any::<bool>()).prop_map(|(v, eth63)| HelloInfo {
        client_id: format!("Geth/v1.{v}.0"),
        capabilities: if eth63 {
            vec!["eth/62".into(), "eth/63".into()]
        } else {
            vec!["par/1".into()]
        },
        p2p_version: v,
    })
}

fn status_strategy() -> impl Strategy<Value = StatusInfo> {
    (1u64..=4, 0u128..1_000_000).prop_map(|(net, td)| StatusInfo {
        protocol_version: 63,
        network_id: net,
        total_difficulty: td,
        best_hash: [net as u8; 32],
        genesis_hash: [0xD4; 32],
    })
}

const FAILURES: [FailureClass; 8] = [
    FailureClass::ConnectFailed,
    FailureClass::ConnectTimeout,
    FailureClass::HandshakeTimeout,
    FailureClass::HelloTimeout,
    FailureClass::StatusTimeout,
    FailureClass::ProtocolError,
    FailureClass::RemoteReset,
    FailureClass::ProbeTimeout,
];

fn failure_strategy() -> impl Strategy<Value = FailureClass> {
    (0usize..FAILURES.len()).prop_map(|i| FAILURES[i])
}

fn outcome_strategy() -> impl Strategy<Value = ConnOutcome> {
    (0u8..7).prop_map(|i| match i {
        0 => ConnOutcome::DialFailed,
        1 => ConnOutcome::HandshakeFailed,
        2 => ConnOutcome::HelloOnly,
        3 => ConnOutcome::StatusCollected,
        4 => ConnOutcome::DaoChecked,
        5 => ConnOutcome::RemoteDisconnect("requested".to_string()),
        _ => ConnOutcome::Open,
    })
}

fn conn_strategy() -> impl Strategy<Value = ConnLog> {
    (
        (
            opt(9, 10, 1u8..=8),
            1u8..=6,
            0u8..3,
            0u64..100_000,
            0u64..50_000,
        ),
        (
            opt(1, 2, hello_strategy()),
            opt(3, 10, status_strategy()),
            opt(2, 5, failure_strategy()),
            outcome_strategy(),
        ),
    )
        .prop_map(
            |((id_tag, ip_tag, ct, ts_ms, duration_ms), (hello, status, failure, outcome))| {
                ConnLog {
                    instance: 0,
                    ts_ms,
                    node_id: id_tag.map(nid),
                    ip: Ipv4Addr::new(10, 0, 0, ip_tag),
                    port: 30303,
                    conn_type: match ct {
                        0 => ConnType::DynamicDial,
                        1 => ConnType::StaticDial,
                        _ => ConnType::Incoming,
                    },
                    latency_ms: 7,
                    duration_ms,
                    hello,
                    status,
                    dao_fork: None,
                    outcome,
                    failure,
                }
            },
        )
}

fn event_strategy() -> impl Strategy<Value = DialEvent> {
    (1u8..=8, 1u8..=6, 0u64..100_000, 0u8..5).prop_map(|(id_tag, ip_tag, ts_ms, kind)| DialEvent {
        instance: 0,
        ts_ms,
        node_id: nid(id_tag),
        ip: Ipv4Addr::new(10, 0, 0, ip_tag),
        kind: match kind {
            0 => DialEventKind::DiscoveryAttempt,
            1 => DialEventKind::DynamicDialAttempt,
            2 => DialEventKind::StaticDialAttempt,
            3 => DialEventKind::DialResponded,
            _ => DialEventKind::DiscoverySighting,
        },
    })
}

/// A deterministic Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = ((seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i as u64))
            % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Log order does not matter for the funnel: any permutation of the
    /// same conns and events lands on the same counts and totals.
    #[test]
    fn funnel_is_order_invariant(
        conns in proptest::collection::vec(conn_strategy(), 1..20),
        events in proptest::collection::vec(event_strategy(), 0..20),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let log = CrawlLog { conns, events };
        let mut shuffled = log.clone();
        shuffle(&mut shuffled.conns, seeds.0);
        shuffle(&mut shuffled.events, seeds.1);
        let forward = DataStore::from_log(&log);
        let backward = DataStore::from_log(&shuffled);
        prop_assert_eq!(forward.dial_funnel(), backward.dial_funnel());
        prop_assert_eq!(forward.failure_totals(), backward.failure_totals());
    }
}
