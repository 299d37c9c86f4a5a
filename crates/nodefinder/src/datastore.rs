//! Aggregating raw crawl logs into the per-node dataset the paper
//! analyzes.

use crate::log::{ConnLog, ConnOutcome, ConnType, CrawlLog, DialEventKind};
use enode::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Everything known about one node ID after a crawl.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeObservation {
    /// The node's 512-bit ID.
    pub id: NodeId,
    /// Every IP it was seen at (spammer detection groups by these).
    pub ips: BTreeSet<Ipv4Addr>,
    /// Last seen port.
    pub port: u16,
    /// First sighting (any layer), ms.
    pub first_seen_ms: u64,
    /// Last sighting, ms.
    pub last_seen_ms: u64,
    /// Discovery-layer sightings.
    pub discovery_sightings: u64,
    /// Dial attempts against it.
    pub dials_attempted: u64,
    /// DEVp2p-level responses (HELLO or DISCONNECT) from it.
    pub dials_responded: u64,
    /// Successful RLPx+HELLO exchanges.
    pub hello_count: u64,
    /// Last collected HELLO.
    pub hello: Option<crate::log::HelloInfo>,
    /// Last collected STATUS.
    pub status: Option<crate::log::StatusInfo>,
    /// DAO-fork check result, if ever completed.
    pub dao_fork: Option<bool>,
    /// Whether it ever connected *to us* (publicly unreachable nodes are
    /// only ever seen this way).
    pub ever_incoming: bool,
    /// Whether it ever answered one of our dials (reachability proof).
    pub ever_answered_dial: bool,
    /// Observed connection latencies, ms.
    pub latencies_ms: Vec<u32>,
    /// First/last time the node itself was *responsive* (completed a
    /// HELLO), as opposed to merely being named in third-party NEIGHBORS
    /// gossip, which keeps echoing dead identities for a long time.
    pub first_active_ms: Option<u64>,
    /// See `first_active_ms`.
    pub last_active_ms: Option<u64>,
    /// Failed-probe counts by [`crate::log::FailureClass`] label.
    #[serde(default)]
    pub failures: BTreeMap<String, u64>,
}

impl NodeObservation {
    fn new(id: NodeId, ts: u64) -> NodeObservation {
        NodeObservation {
            id,
            ips: BTreeSet::new(),
            port: 0,
            first_seen_ms: ts,
            last_seen_ms: ts,
            discovery_sightings: 0,
            dials_attempted: 0,
            dials_responded: 0,
            hello_count: 0,
            hello: None,
            status: None,
            dao_fork: None,
            ever_incoming: false,
            ever_answered_dial: false,
            latencies_ms: Vec::new(),
            first_active_ms: None,
            last_active_ms: None,
            failures: BTreeMap::new(),
        }
    }

    /// Active span, ms — the §5.4 filter keys on spans under 30 minutes.
    ///
    /// For nodes that ever completed a HELLO, the span covers responsive
    /// contact only; stale NEIGHBORS gossip naming a dead identity does
    /// not stretch it. Nodes never contacted fall back to sighting span.
    pub fn active_span_ms(&self) -> u64 {
        match (self.first_active_ms, self.last_active_ms) {
            (Some(a), Some(b)) => b - a,
            _ => self.last_seen_ms - self.first_seen_ms,
        }
    }

    /// Is this a non-Classic Mainnet node (network 1, Mainnet genesis,
    /// pro-DAO or unchecked)?
    pub fn is_mainnet(&self) -> bool {
        match &self.status {
            Some(st) => {
                st.network_id == ethwire::MAINNET_NETWORK_ID
                    && st.genesis_hash == ethwire::MAINNET_GENESIS
                    && self.dao_fork != Some(false)
            }
            None => false,
        }
    }

    /// Whether the node ever spoke DEVp2p with us.
    pub fn devp2p_responsive(&self) -> bool {
        self.hello_count > 0 || self.dials_responded > 0 || self.ever_incoming
    }
}

/// The aggregated dataset: one observation per node ID, as a plain map.
///
/// The Figs. 6–7 funnel and the failure totals are computed by a scan
/// of `nodes` when asked for; nothing else is kept beside the map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataStore {
    /// Observations by node id.
    pub nodes: BTreeMap<NodeId, NodeObservation>,
}

impl DataStore {
    /// Build from a merged crawl log.
    pub fn from_log(log: &CrawlLog) -> DataStore {
        let mut store = DataStore::default();
        for event in &log.events {
            let obs = store
                .nodes
                .entry(event.node_id)
                .or_insert_with(|| NodeObservation::new(event.node_id, event.ts_ms));
            obs.first_seen_ms = obs.first_seen_ms.min(event.ts_ms);
            obs.last_seen_ms = obs.last_seen_ms.max(event.ts_ms);
            obs.ips.insert(event.ip);
            match event.kind {
                DialEventKind::DiscoverySighting => obs.discovery_sightings += 1,
                DialEventKind::DynamicDialAttempt | DialEventKind::StaticDialAttempt => {
                    obs.dials_attempted += 1
                }
                DialEventKind::DialResponded => {
                    obs.dials_responded += 1;
                    obs.ever_answered_dial = true;
                }
                DialEventKind::DiscoveryAttempt => {}
            }
        }
        for conn in &log.conns {
            store.ingest_conn(conn);
        }
        store
    }

    /// Fold one connection log entry into its node's observation.
    fn ingest_conn(&mut self, conn: &ConnLog) {
        let Some(id) = conn.node_id else { return };
        let obs = self
            .nodes
            .entry(id)
            .or_insert_with(|| NodeObservation::new(id, conn.ts_ms));
        // Both log readers refuse an end past `u64::MAX`; a log built in
        // memory saturates there instead.
        let end = conn.end_ms().unwrap_or(u64::MAX);
        obs.first_seen_ms = obs.first_seen_ms.min(conn.ts_ms);
        obs.last_seen_ms = obs.last_seen_ms.max(end);
        obs.ips.insert(conn.ip);
        obs.port = conn.port;
        if conn.conn_type == ConnType::Incoming {
            obs.ever_incoming = true;
        }
        if conn.hello.is_some() {
            obs.hello_count += 1;
            obs.hello = conn.hello.clone();
            obs.first_active_ms = Some(
                obs.first_active_ms
                    .map_or(conn.ts_ms, |v| v.min(conn.ts_ms)),
            );
            obs.last_active_ms = Some(obs.last_active_ms.map_or(end, |v| v.max(end)));
        }
        if conn.status.is_some() {
            obs.status = conn.status;
        }
        if conn.dao_fork.is_some() {
            obs.dao_fork = conn.dao_fork;
        }
        if conn.latency_ms > 0 {
            obs.latencies_ms.push(conn.latency_ms);
        }
        if let Some(failure) = conn.failure {
            *obs.failures.entry(failure.label().to_string()).or_insert(0) += 1;
        }
        let responded = matches!(
            conn.outcome,
            ConnOutcome::HelloOnly
                | ConnOutcome::StatusCollected
                | ConnOutcome::DaoChecked
                | ConnOutcome::RemoteDisconnect(_)
        );
        if responded && conn.conn_type != ConnType::Incoming {
            obs.ever_answered_dial = true;
        }
    }

    /// All node IDs ever seen (the "3,023,275 unique node IDs" analogue).
    pub fn total_ids(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes with a completed HELLO.
    pub fn hello_nodes(&self) -> impl Iterator<Item = &NodeObservation> {
        self.nodes.values().filter(|n| n.hello.is_some())
    }

    /// Nodes with a completed STATUS.
    pub fn status_nodes(&self) -> impl Iterator<Item = &NodeObservation> {
        self.nodes.values().filter(|n| n.status.is_some())
    }

    /// Non-Classic Mainnet nodes.
    pub fn mainnet_nodes(&self) -> impl Iterator<Item = &NodeObservation> {
        self.nodes.values().filter(|n| n.is_mainnet())
    }

    /// Failure counts summed across all nodes, by class label.
    pub fn failure_totals(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for obs in self.nodes.values() {
            for (label, count) in &obs.failures {
                *totals.entry(label.clone()).or_insert(0) += count;
            }
        }
        totals
    }

    /// The Figs. 6–7 funnel: how many node IDs survive each stage of the
    /// discovery → dial → HELLO → STATUS pipeline.
    pub fn dial_funnel(&self) -> DialFunnel {
        let count =
            |keep: fn(&NodeObservation) -> bool| self.nodes.values().filter(|n| keep(n)).count();
        DialFunnel {
            discovered: self.nodes.len(),
            dialed: count(|n| n.dials_attempted > 0),
            responded: count(|n| n.ever_answered_dial),
            hello: count(|n| n.hello.is_some()),
            status: count(|n| n.status.is_some()),
            unresponsive_dialed: count(|n| n.dials_attempted > 0 && !n.devp2p_responsive()),
        }
    }

    /// Serialize the whole store as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self).expect("serializable")
    }

    /// Parse a store serialized by [`DataStore::to_json`], refusing one
    /// no crawl log aggregates to: an observation filed under another id,
    /// a last sighting before the first, or an active span with one end
    /// missing or its ends inverted.
    pub fn from_json(text: &str) -> Result<DataStore, serde_json::Error> {
        let store: DataStore = serde_json::from_str(text)?;
        for (id, obs) in &store.nodes {
            let fault = if *id != obs.id {
                "filed under another id"
            } else if obs.last_seen_ms < obs.first_seen_ms {
                "last seen before first seen"
            } else {
                match (obs.first_active_ms, obs.last_active_ms) {
                    (None, None) => continue,
                    (Some(first), Some(last)) if first <= last => continue,
                    _ => "active span inverted or half set",
                }
            };
            return Err(serde::de::Error::custom(format_args!(
                "node {}: {fault}",
                id.short()
            )));
        }
        Ok(store)
    }
}

/// Stage survival counts for the paper's dialed-vs-responded funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DialFunnel {
    /// Node IDs seen at any layer.
    pub discovered: usize,
    /// IDs we dialed at least once.
    pub dialed: usize,
    /// IDs that ever answered a dial at the DEVp2p layer.
    pub responded: usize,
    /// IDs with a completed HELLO.
    pub hello: usize,
    /// IDs with a completed STATUS.
    pub status: usize,
    /// IDs we dialed but that never spoke DEVp2p at all — the paper's
    /// dominant population under degraded conditions.
    pub unresponsive_dialed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DialEvent, FailureClass, HelloInfo, StatusInfo};

    fn id(tag: u8) -> NodeId {
        NodeId([tag; 64])
    }

    fn conn(tag: u8, ts: u64, conn_type: ConnType) -> ConnLog {
        ConnLog {
            instance: 0,
            ts_ms: ts,
            node_id: Some(id(tag)),
            ip: Ipv4Addr::new(10, 0, 0, tag),
            port: 30303,
            conn_type,
            latency_ms: 40,
            duration_ms: 500,
            hello: Some(HelloInfo {
                client_id: "Geth/v1.8.11".into(),
                capabilities: vec!["eth/63".into()],
                p2p_version: 5,
            }),
            status: Some(StatusInfo {
                protocol_version: 63,
                network_id: 1,
                total_difficulty: 100,
                best_hash: [9u8; 32],
                genesis_hash: ethwire::MAINNET_GENESIS,
            }),
            dao_fork: Some(true),
            outcome: ConnOutcome::DaoChecked,
            failure: None,
        }
    }

    #[test]
    fn aggregation_dedups_by_node_id() {
        let mut log = CrawlLog::default();
        log.conns.push(conn(1, 100, ConnType::DynamicDial));
        log.conns.push(conn(1, 5000, ConnType::StaticDial));
        log.conns.push(conn(2, 200, ConnType::Incoming));
        let store = DataStore::from_log(&log);
        assert_eq!(store.total_ids(), 2);
        let obs = &store.nodes[&id(1)];
        assert_eq!(obs.hello_count, 2);
        assert_eq!(obs.first_seen_ms, 100);
        assert_eq!(obs.last_seen_ms, 5500);
        assert!(obs.ever_answered_dial);
        assert!(!obs.ever_incoming);
        let obs2 = &store.nodes[&id(2)];
        assert!(obs2.ever_incoming);
    }

    #[test]
    fn mainnet_classification() {
        let mut mainnet = conn(1, 0, ConnType::DynamicDial);
        mainnet.dao_fork = Some(true);
        let mut classic = conn(2, 0, ConnType::DynamicDial);
        classic.dao_fork = Some(false);
        let mut testnet = conn(3, 0, ConnType::DynamicDial);
        testnet.status.as_mut().unwrap().network_id = 3;
        let mut no_status = conn(4, 0, ConnType::DynamicDial);
        no_status.status = None;
        no_status.dao_fork = None;

        let mut log = CrawlLog::default();
        log.conns.extend([mainnet, classic, testnet, no_status]);
        let store = DataStore::from_log(&log);
        let mainnet_ids: Vec<_> = store.mainnet_nodes().map(|n| n.id).collect();
        assert_eq!(mainnet_ids, vec![id(1)]);
        assert_eq!(store.status_nodes().count(), 3);
        assert_eq!(store.hello_nodes().count(), 4);
    }

    #[test]
    fn discovery_sightings_counted() {
        let mut log = CrawlLog::default();
        for ts in [10, 20, 30] {
            log.events.push(DialEvent {
                instance: 0,
                ts_ms: ts,
                node_id: id(5),
                ip: Ipv4Addr::new(1, 2, 3, 4),
                kind: DialEventKind::DiscoverySighting,
            });
        }
        let store = DataStore::from_log(&log);
        let obs = &store.nodes[&id(5)];
        assert_eq!(obs.discovery_sightings, 3);
        assert_eq!(obs.active_span_ms(), 20);
        assert!(!obs.devp2p_responsive());
    }

    #[test]
    fn failure_classes_tallied_and_funneled() {
        let mut log = CrawlLog::default();
        // Node 1: dialed twice, never responded.
        for ts in [0u64, 10_000] {
            let mut c = conn(1, ts, ConnType::DynamicDial);
            c.hello = None;
            c.status = None;
            c.dao_fork = None;
            c.outcome = ConnOutcome::DialFailed;
            c.failure = Some(FailureClass::ConnectTimeout);
            log.events.push(DialEvent {
                instance: 0,
                ts_ms: ts,
                node_id: id(1),
                ip: Ipv4Addr::new(10, 0, 0, 1),
                kind: DialEventKind::DynamicDialAttempt,
            });
            log.conns.push(c);
        }
        // Node 2: dialed, full probe.
        log.events.push(DialEvent {
            instance: 0,
            ts_ms: 0,
            node_id: id(2),
            ip: Ipv4Addr::new(10, 0, 0, 2),
            kind: DialEventKind::DynamicDialAttempt,
        });
        log.conns.push(conn(2, 0, ConnType::DynamicDial));
        // Node 3: discovery only.
        log.events.push(DialEvent {
            instance: 0,
            ts_ms: 0,
            node_id: id(3),
            ip: Ipv4Addr::new(10, 0, 0, 3),
            kind: DialEventKind::DiscoverySighting,
        });
        let store = DataStore::from_log(&log);
        assert_eq!(store.nodes[&id(1)].failures["connect_timeout"], 2);
        assert_eq!(store.failure_totals()["connect_timeout"], 2);
        let funnel = store.dial_funnel();
        assert_eq!(funnel.discovered, 3);
        assert_eq!(funnel.dialed, 2);
        assert_eq!(funnel.hello, 1);
        assert_eq!(funnel.status, 1);
        assert_eq!(funnel.unresponsive_dialed, 1);
    }

    /// Build a log exercising every funnel stage and failure class mix:
    /// responsive dials, unresponsive dials, incoming-only, discovery-only.
    fn mixed_log() -> CrawlLog {
        let mut log = CrawlLog::default();
        // Node 1: two failed dials, then a full probe.
        for ts in [0u64, 10_000] {
            let mut c = conn(1, ts, ConnType::DynamicDial);
            c.hello = None;
            c.status = None;
            c.dao_fork = None;
            c.outcome = ConnOutcome::DialFailed;
            c.failure = Some(FailureClass::ConnectTimeout);
            log.events.push(DialEvent {
                instance: 0,
                ts_ms: ts,
                node_id: id(1),
                ip: Ipv4Addr::new(10, 0, 0, 1),
                kind: DialEventKind::DynamicDialAttempt,
            });
            log.conns.push(c);
        }
        log.conns.push(conn(1, 20_000, ConnType::DynamicDial));
        // Node 2: dialed, never responded at all.
        log.events.push(DialEvent {
            instance: 0,
            ts_ms: 0,
            node_id: id(2),
            ip: Ipv4Addr::new(10, 0, 0, 2),
            kind: DialEventKind::DynamicDialAttempt,
        });
        let mut dead = conn(2, 0, ConnType::DynamicDial);
        dead.hello = None;
        dead.status = None;
        dead.dao_fork = None;
        dead.outcome = ConnOutcome::DialFailed;
        dead.failure = Some(FailureClass::ConnectFailed);
        log.conns.push(dead);
        // Node 3: incoming only.
        log.conns.push(conn(3, 500, ConnType::Incoming));
        // Node 4: discovery only.
        log.events.push(DialEvent {
            instance: 0,
            ts_ms: 0,
            node_id: id(4),
            ip: Ipv4Addr::new(10, 0, 0, 4),
            kind: DialEventKind::DiscoverySighting,
        });
        log
    }

    /// The store's JSON is `{"nodes":{...}}` and reads back to the same
    /// bytes, funnel and failure totals.
    #[test]
    fn json_roundtrip() {
        let store = DataStore::from_log(&mixed_log());
        let text = store.to_json();
        assert!(text.starts_with("{\"nodes\":{"));
        let back = DataStore::from_json(&text).unwrap();
        assert_eq!(back.to_json(), text);
        assert!(back.nodes[&id(1)].is_mainnet());
        assert_eq!(back.dial_funnel(), store.dial_funnel());
        let totals = back.failure_totals();
        assert_eq!(totals["connect_timeout"], 2);
        assert_eq!(totals["connect_failed"], 1);
    }

    /// JSON no crawl log aggregates to is an `Err`, not a store that
    /// panics later in `active_span_ms` or `sanitize`.
    #[test]
    fn impossible_observations_are_rejected() {
        let store = DataStore::from_log(&mixed_log());
        type Damage = fn(&mut NodeObservation);
        let cases: [(&str, Damage); 5] = [
            ("last seen before first seen", |o| {
                o.first_seen_ms = o.last_seen_ms + 1
            }),
            ("active span inverted", |o| {
                o.first_active_ms = o.last_active_ms.map(|t| t + 1)
            }),
            ("active span missing its first end", |o| {
                o.first_active_ms = None
            }),
            ("active span missing its last end", |o| {
                o.last_active_ms = None
            }),
            ("filed under another id", |o| o.id = id(7)),
        ];
        for (name, damage) in cases {
            let mut bad = store.clone();
            damage(bad.nodes.get_mut(&id(1)).unwrap());
            assert!(DataStore::from_json(&bad.to_json()).is_err(), "{name}");
        }
    }
}
