//! Structured crawl logs — the shape of what NodeFinder's co-opted Geth
//! logger recorded (§4).

use enode::NodeId;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
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

/// Image: the record as one JSON string — `serde_json` output is
/// deterministic (struct field order), so it is a pure function of the
/// record.
impl Snap for ConnLog {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(&serde_json::to_string(self).expect("conn log serializes"));
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<ConnLog, SnapError> {
        serde_json::from_str(r.str()?).map_err(|_| SnapError::Corrupt("conn log does not parse"))
    }
}

/// Everything one crawler instance accumulates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrawlLog {
    /// Connection records.
    pub conns: Vec<ConnLog>,
    /// Countable events.
    pub events: Vec<DialEvent>,
}

/// Image: the whole log as one JSONL string ([`CrawlLog::to_jsonl`]).
impl Snap for CrawlLog {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(&self.to_jsonl());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<CrawlLog, SnapError> {
        CrawlLog::from_jsonl(r.str()?).map_err(|_| SnapError::Corrupt("crawl log does not parse"))
    }
}

impl CrawlLog {
    /// Merge another instance's log into this one (harness-side).
    pub fn merge(&mut self, other: CrawlLog) {
        self.conns.extend(other.conns);
        self.events.extend(other.events);
    }

    /// Serialize as JSON lines (one conn/event per line, tagged).
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
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let all = [
            FailureClass::ConnectFailed,
            FailureClass::ConnectTimeout,
            FailureClass::HandshakeTimeout,
            FailureClass::HelloTimeout,
            FailureClass::StatusTimeout,
            FailureClass::ProtocolError,
            FailureClass::RemoteReset,
            FailureClass::ProbeTimeout,
        ];
        let labels: std::collections::BTreeSet<&str> = all.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
