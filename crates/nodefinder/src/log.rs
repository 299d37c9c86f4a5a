//! Structured crawl logs — the shape of what NodeFinder's co-opted Geth
//! logger recorded (§4).

use enode::NodeId;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// How a connection came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnType {
    /// Dial to a node fresh out of discovery.
    DynamicDial,
    /// Scheduled re-dial of a known node.
    StaticDial,
    /// The remote dialed us.
    Incoming,
}

obs::snap_enum!(ConnType { 0 => DynamicDial, 1 => StaticDial, 2 => Incoming });

/// Decoded HELLO fields the dataset keeps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloInfo {
    /// Client identifier string.
    pub client_id: String,
    /// Capability list as `name/version` strings.
    pub capabilities: Vec<String>,
    /// DEVp2p version.
    pub p2p_version: u32,
}

obs::snap_struct!(HelloInfo {
    client_id,
    capabilities,
    p2p_version
});

/// Decoded Ethereum STATUS fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusInfo {
    /// eth protocol version.
    pub protocol_version: u32,
    /// Network id.
    pub network_id: u64,
    /// Total difficulty.
    pub total_difficulty: u128,
    /// Best (head) block hash.
    pub best_hash: [u8; 32],
    /// Genesis hash.
    pub genesis_hash: [u8; 32],
}

obs::snap_struct!(StatusInfo {
    protocol_version,
    network_id,
    total_difficulty,
    best_hash,
    genesis_hash
});

/// Terminal state of a probe connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnOutcome {
    /// TCP never came up.
    DialFailed,
    /// TCP up, RLPx/DEVp2p handshake never completed.
    HandshakeFailed,
    /// HELLO collected, nothing more (non-eth peer or early hangup).
    HelloOnly,
    /// HELLO + STATUS collected.
    StatusCollected,
    /// Full probe: HELLO + STATUS + DAO check.
    DaoChecked,
    /// The peer disconnected us with this reason label.
    RemoteDisconnect(String),
    /// Still open when the experiment ended.
    Open,
}

obs::snap_enum!(ConnOutcome {
    0 => DialFailed,
    1 => HandshakeFailed,
    2 => HelloOnly,
    3 => StatusCollected,
    4 => DaoChecked,
    5 => RemoteDisconnect(reason),
    6 => Open,
});

/// Why a failed probe failed — the per-failure-class counters behind the
/// degraded-conditions dialed-vs-responded funnel (Figs. 6–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FailureClass {
    /// TCP connect was refused / target unreachable.
    ConnectFailed,
    /// TCP connect never completed within the stage timeout.
    ConnectTimeout,
    /// TCP up, RLPx auth/ack never completed in time.
    HandshakeTimeout,
    /// RLPx done, DEVp2p HELLO never arrived (slow-loris shape).
    HelloTimeout,
    /// HELLO done, eth STATUS / DAO headers never arrived.
    StatusTimeout,
    /// The peer violated the protocol (bad frame, garbage HELLO, ...).
    ProtocolError,
    /// The peer closed the connection before completing DEVp2p.
    RemoteReset,
    /// The probe exceeded its total lifetime cap.
    ProbeTimeout,
}

obs::snap_enum!(FailureClass {
    0 => ConnectFailed,
    1 => ConnectTimeout,
    2 => HandshakeTimeout,
    3 => HelloTimeout,
    4 => StatusTimeout,
    5 => ProtocolError,
    6 => RemoteReset,
    7 => ProbeTimeout,
});

impl FailureClass {
    /// Stable string label (DataStore counter key).
    pub fn label(&self) -> &'static str {
        match self {
            FailureClass::ConnectFailed => "connect_failed",
            FailureClass::ConnectTimeout => "connect_timeout",
            FailureClass::HandshakeTimeout => "handshake_timeout",
            FailureClass::HelloTimeout => "hello_timeout",
            FailureClass::StatusTimeout => "status_timeout",
            FailureClass::ProtocolError => "protocol_error",
            FailureClass::RemoteReset => "remote_reset",
            FailureClass::ProbeTimeout => "probe_timeout",
        }
    }
}

/// One connection attempt's record — the unit the paper's log lines
/// aggregate into.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConnLog {
    /// Crawler instance that made the attempt.
    pub instance: u32,
    /// When the attempt started, ms.
    pub ts_ms: u64,
    /// Remote node ID (known pre-dial for outbound, post-handshake for
    /// incoming; `None` if it never authenticated).
    pub node_id: Option<NodeId>,
    /// Remote IP.
    pub ip: Ipv4Addr,
    /// Remote port.
    pub port: u16,
    /// Attempt kind.
    pub conn_type: ConnType,
    /// Socket smoothed RTT, ms (0 until measured).
    pub latency_ms: u32,
    /// Connection lifetime, ms.
    pub duration_ms: u64,
    /// HELLO, if collected.
    pub hello: Option<HelloInfo>,
    /// STATUS, if collected.
    pub status: Option<StatusInfo>,
    /// DAO-fork support, if the header check ran (`Some(true)` = pro-fork
    /// Mainnet, `Some(false)` = Classic-style chain).
    pub dao_fork: Option<bool>,
    /// Outcome.
    pub outcome: ConnOutcome,
    /// Failure classification, when the probe failed (`None` on success
    /// and in logs written before this field existed).
    #[serde(default)]
    pub failure: Option<FailureClass>,
}

impl ConnLog {
    /// When the connection closed, ms; `None` when `ts_ms + duration_ms`
    /// overflows, which [`CrawlLog::check`] refuses.
    pub(crate) fn end_ms(&self) -> Option<u64> {
        self.ts_ms.checked_add(self.duration_ms)
    }
}

obs::snap_struct!(ConnLog {
    instance,
    ts_ms,
    node_id,
    ip,
    port,
    conn_type,
    latency_ms,
    duration_ms,
    hello,
    status,
    dao_fork,
    outcome,
    failure
});

/// A discovery-layer sighting (RLPx node discovery, no TCP involved).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DialEvent {
    /// Crawler instance.
    pub instance: u32,
    /// When, ms.
    pub ts_ms: u64,
    /// Which node.
    pub node_id: NodeId,
    /// Its advertised IP.
    pub ip: Ipv4Addr,
    /// Kind of event.
    pub kind: DialEventKind,
}

obs::snap_struct!(DialEvent {
    instance,
    ts_ms,
    node_id,
    ip,
    kind
});

/// Kinds of countable crawler events (Figures 5–8 are built from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DialEventKind {
    /// A discovery lookup round started.
    DiscoveryAttempt,
    /// A dynamic dial was attempted.
    DynamicDialAttempt,
    /// A static re-dial was attempted.
    StaticDialAttempt,
    /// The node answered a dial at the DEVp2p layer (HELLO or DISCONNECT).
    DialResponded,
    /// The node was seen in discovery traffic (NEIGHBORS/PING).
    DiscoverySighting,
}

obs::snap_enum!(DialEventKind {
    0 => DiscoveryAttempt,
    1 => DynamicDialAttempt,
    2 => StaticDialAttempt,
    3 => DialResponded,
    4 => DiscoverySighting,
});

/// Everything one crawler instance accumulates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrawlLog {
    /// Connection records.
    pub conns: Vec<ConnLog>,
    /// Countable events.
    pub events: Vec<DialEvent>,
}

obs::snap_struct!(CrawlLog { conns, events });

impl CrawlLog {
    /// Merge another instance's log into this one (harness-side).
    pub fn merge(&mut self, other: CrawlLog) {
        self.conns.extend(other.conns);
        self.events.extend(other.events);
    }

    /// The check both log readers (`from_jsonl` and the `NFND` restore)
    /// make before handing a log on: every connection ends at a
    /// representable instant.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.conns.iter().any(|c| c.end_ms().is_none()) {
            return Err("connection ends past u64::MAX ms");
        }
        Ok(())
    }

    /// Serialize as JSON lines (one conn/event per line, tagged): the
    /// crawl log's export format. A checkpoint writes the log through
    /// `Snap` instead.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.conns {
            out.push_str("{\"type\":\"conn\",\"data\":");
            out.push_str(&serde_json::to_string(c).expect("serializable"));
            out.push_str("}\n");
        }
        for e in &self.events {
            out.push_str("{\"type\":\"event\",\"data\":");
            out.push_str(&serde_json::to_string(e).expect("serializable"));
            out.push_str("}\n");
        }
        out
    }

    /// Parse JSON lines produced by [`CrawlLog::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<CrawlLog, serde_json::Error> {
        #[derive(Deserialize)]
        #[serde(tag = "type", content = "data")]
        enum Line {
            #[serde(rename = "conn")]
            Conn(Box<ConnLog>),
            #[serde(rename = "event")]
            Event(DialEvent),
        }
        let mut log = CrawlLog::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match serde_json::from_str::<Line>(line)? {
                Line::Conn(c) => log.conns.push(*c),
                Line::Event(e) => log.events.push(e),
            }
        }
        log.check().map_err(serde::de::Error::custom)?;
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::snap::{Snap, SnapReader, SnapWriter};
    use proptest::prelude::*;

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

    const KINDS: [DialEventKind; 5] = [
        DialEventKind::DiscoveryAttempt,
        DialEventKind::DynamicDialAttempt,
        DialEventKind::StaticDialAttempt,
        DialEventKind::DialResponded,
        DialEventKind::DiscoverySighting,
    ];

    const CONN_TYPES: [ConnType; 3] = [
        ConnType::DynamicDial,
        ConnType::StaticDial,
        ConnType::Incoming,
    ];

    fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
    }

    fn arb_id() -> impl Strategy<Value = NodeId> {
        proptest::collection::vec(any::<u8>(), 64)
            .prop_map(|v| NodeId(v.try_into().expect("64 bytes")))
    }

    fn arb_outcome() -> impl Strategy<Value = ConnOutcome> {
        prop_oneof![
            Just(ConnOutcome::DialFailed),
            Just(ConnOutcome::HandshakeFailed),
            Just(ConnOutcome::HelloOnly),
            Just(ConnOutcome::StatusCollected),
            Just(ConnOutcome::DaoChecked),
            ".{0,24}".prop_map(ConnOutcome::RemoteDisconnect),
            Just(ConnOutcome::Open),
        ]
    }

    fn arb_conn() -> impl Strategy<Value = ConnLog> {
        let hello = (
            ".{0,40}",
            proptest::collection::vec(".{0,8}", 0..4),
            any::<u32>(),
        )
            .prop_map(|(client_id, capabilities, p2p_version)| HelloInfo {
                client_id,
                capabilities,
                p2p_version,
            });
        let status = (
            any::<u32>(),
            any::<u64>(),
            prop_oneof![Just(u128::MAX), any::<u128>()],
            any::<[u8; 32]>(),
            any::<[u8; 32]>(),
        )
            .prop_map(
                |(protocol_version, network_id, total_difficulty, best_hash, genesis_hash)| {
                    StatusInfo {
                        protocol_version,
                        network_id,
                        total_difficulty,
                        best_hash,
                        genesis_hash,
                    }
                },
            );
        let head = (
            any::<u32>(),
            any::<u64>(),
            maybe(arb_id()),
            any::<u32>(),
            any::<u16>(),
            0..CONN_TYPES.len(),
        );
        let tail = (
            (any::<u32>(), any::<u64>()),
            maybe(hello),
            maybe(status),
            maybe(any::<bool>()),
            arb_outcome(),
            maybe(0..FAILURES.len()),
        );
        (head, tail).prop_map(
            |(
                (instance, ts_ms, node_id, ip, port, conn_type),
                ((latency_ms, duration_ms), hello, status, dao_fork, outcome, failure),
            )| ConnLog {
                instance,
                ts_ms,
                node_id,
                ip: Ipv4Addr::from(ip),
                port,
                conn_type: CONN_TYPES[conn_type],
                latency_ms,
                duration_ms,
                hello,
                status,
                dao_fork,
                outcome,
                failure: failure.map(|i| FAILURES[i]),
            },
        )
    }

    fn arb_event() -> impl Strategy<Value = DialEvent> {
        (
            any::<u32>(),
            any::<u64>(),
            arb_id(),
            any::<u32>(),
            0..KINDS.len(),
        )
            .prop_map(|(instance, ts_ms, node_id, ip, kind)| DialEvent {
                instance,
                ts_ms,
                node_id,
                ip: Ipv4Addr::from(ip),
                kind: KINDS[kind],
            })
    }

    fn snap_bytes<T: Snap>(x: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        x.snap(&mut w);
        w.finish()
    }

    proptest! {
        /// A log read back from its image is the log written — the same
        /// JSONL export, the same image — over every outcome, absent
        /// fields and the largest total difficulty; the reader consumes
        /// exactly the image.
        #[test]
        fn crawl_log_snap_round_trips(
            conns in proptest::collection::vec(arb_conn(), 0..6),
            events in proptest::collection::vec(arb_event(), 0..6),
        ) {
            let log = CrawlLog { conns, events };
            let image = snap_bytes(&log);
            let mut r = SnapReader::new(&image);
            let back = CrawlLog::unsnap(&mut r).unwrap();
            prop_assert_eq!(r.finish(), Ok(()));
            prop_assert_eq!(back.to_jsonl(), log.to_jsonl());
            prop_assert_eq!(snap_bytes(&back), image);
            for conn in &log.conns {
                let image = snap_bytes(conn);
                let mut r = SnapReader::new(&image);
                let back = ConnLog::unsnap(&mut r).unwrap();
                prop_assert_eq!(r.finish(), Ok(()));
                prop_assert_eq!(snap_bytes(&back), image);
            }
        }
    }

    fn sample_conn() -> ConnLog {
        ConnLog {
            instance: 3,
            ts_ms: 123_456,
            node_id: Some(NodeId([7u8; 64])),
            ip: Ipv4Addr::new(191, 235, 84, 50),
            port: 30303,
            conn_type: ConnType::DynamicDial,
            latency_ms: 88,
            duration_ms: 950,
            hello: Some(HelloInfo {
                client_id: "Geth/v1.8.11-stable/linux-amd64/go1.10".into(),
                capabilities: vec!["eth/62".into(), "eth/63".into()],
                p2p_version: 5,
            }),
            status: Some(StatusInfo {
                protocol_version: 63,
                network_id: 1,
                total_difficulty: 3_000_000_000,
                best_hash: [1u8; 32],
                genesis_hash: ethwire::MAINNET_GENESIS,
            }),
            dao_fork: Some(true),
            outcome: ConnOutcome::DaoChecked,
            failure: None,
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut log = CrawlLog::default();
        log.conns.push(sample_conn());
        log.events.push(DialEvent {
            instance: 3,
            ts_ms: 1,
            node_id: NodeId([7u8; 64]),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            kind: DialEventKind::DiscoverySighting,
        });
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = CrawlLog::from_jsonl(&text).unwrap();
        assert_eq!(back.conns.len(), 1);
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.conns[0].node_id, log.conns[0].node_id);
        assert_eq!(back.conns[0].outcome, ConnOutcome::DaoChecked);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = CrawlLog::default();
        a.conns.push(sample_conn());
        let mut b = CrawlLog::default();
        b.conns.push(sample_conn());
        b.conns.push(sample_conn());
        a.merge(b);
        assert_eq!(a.conns.len(), 3);
    }

    #[test]
    fn bad_jsonl_is_an_error() {
        assert!(CrawlLog::from_jsonl("{\"type\":\"bogus\"}").is_err());
    }

    /// A connection ending past `u64::MAX` ms is refused here, not
    /// handed on to overflow in `DataStore::from_log`.
    #[test]
    fn conn_ending_past_u64_max_is_an_error() {
        let mut log = CrawlLog::default();
        log.conns.push(sample_conn());
        log.conns[0].ts_ms = u64::MAX - 1;
        log.conns[0].duration_ms = 1;
        assert!(CrawlLog::from_jsonl(&log.to_jsonl()).is_ok());
        log.conns[0].ts_ms = u64::MAX;
        assert!(CrawlLog::from_jsonl(&log.to_jsonl()).is_err());
    }

    #[test]
    fn conn_without_failure_field_still_parses() {
        // Logs written before failure classification existed must load.
        let json = serde_json::to_string(&sample_conn()).unwrap();
        let pre = json.replace(",\"failure\":null", "");
        assert_ne!(pre, json, "fixture should have carried the field");
        let line = format!("{{\"type\":\"conn\",\"data\":{pre}}}");
        let log = CrawlLog::from_jsonl(&line).unwrap();
        assert_eq!(log.conns[0].failure, None);
    }

    #[test]
    fn failure_labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> = FAILURES.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), FAILURES.len());
    }
}
