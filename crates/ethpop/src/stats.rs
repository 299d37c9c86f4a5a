//! `NodeStats`: the counters a population node keeps for the case study
//! — Figures 2, 3, 4 and Table 1 read these — their label vocabulary and
//! their image.

use devp2p::DisconnectReason;
use enode::NodeId;
use ethwire::EthMessage;
use netsim::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;

/// Instrumentation counters — Figures 2, 3, 4 and Table 1 read these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Messages sent, keyed by wire-message label.
    pub sent: BTreeMap<&'static str, u64>,
    /// Messages received, keyed by label.
    pub received: BTreeMap<&'static str, u64>,
    /// DISCONNECT reasons sent.
    pub disconnects_sent: BTreeMap<&'static str, u64>,
    /// DISCONNECT reasons received.
    pub disconnects_received: BTreeMap<&'static str, u64>,
    /// (time ms, active peer count) samples.
    pub peer_samples: Vec<(u64, usize)>,
    /// Every identity this node has used (spammers accumulate many).
    pub identities: Vec<NodeId>,
    /// Discovery lookups started.
    pub lookups: u64,
    /// Outbound dial attempts.
    pub dials: u64,
}

/// What a node's counters read before its first count.
pub(crate) static NO_STATS: NodeStats = NodeStats {
    sent: BTreeMap::new(),
    received: BTreeMap::new(),
    disconnects_sent: BTreeMap::new(),
    disconnects_received: BTreeMap::new(),
    peer_samples: Vec::new(),
    identities: Vec::new(),
    lookups: 0,
    dials: 0,
};

/// Image: the four label maps as `(label string, count)` maps, then the
/// remaining fields in declaration order. Restore reads each map through
/// the generic `BTreeMap` reader (strictly ascending labels) and refuses
/// a label outside the vocabulary a run counts in.
impl Snap for NodeStats {
    fn snap(&self, w: &mut SnapWriter) {
        for m in [
            &self.sent,
            &self.received,
            &self.disconnects_sent,
            &self.disconnects_received,
        ] {
            w.usize(m.len());
            for (label, v) in m {
                Label(label).snap(w);
                v.snap(w);
            }
        }
        self.peer_samples.snap(w);
        self.identities.snap(w);
        self.lookups.snap(w);
        self.dials.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<NodeStats, SnapError> {
        let mut labels = || -> Result<BTreeMap<&'static str, u64>, SnapError> {
            let m = BTreeMap::<Label, u64>::unsnap(r)?;
            Ok(m.into_iter().map(|(label, v)| (label.0, v)).collect())
        };
        Ok(NodeStats {
            sent: labels()?,
            received: labels()?,
            disconnects_sent: labels()?,
            disconnects_received: labels()?,
            peer_samples: Snap::unsnap(r)?,
            identities: Snap::unsnap(r)?,
            lookups: Snap::unsnap(r)?,
            dials: Snap::unsnap(r)?,
        })
    }
}

/// The message labels `NodeStats` maps count: every [`eth_label`], the
/// session messages and other subprotocols. With the DISCONNECT reasons'
/// labels it is the whole vocabulary.
const KNOWN_LABELS: [&str; 17] = [
    "STATUS",
    "NEW_BLOCK_HASHES",
    "TRANSACTIONS",
    "GET_BLOCK_HEADERS",
    "BLOCK_HEADERS",
    "GET_BLOCK_BODIES",
    "BLOCK_BODIES",
    "NEW_BLOCK",
    "GET_NODE_DATA",
    "NODE_DATA",
    "GET_RECEIPTS",
    "RECEIPTS",
    "HELLO",
    "PING",
    "PONG",
    "DISCONNECT",
    "OTHER_SUBPROTOCOL",
];

/// The vocabulary's `&'static str` equal to `s`, if there is one.
fn intern_label(s: &str) -> Option<&'static str> {
    let reasons = DisconnectReason::ALL.iter().map(|r| r.label());
    let mut vocabulary = KNOWN_LABELS.iter().copied().chain(reasons);
    vocabulary.find(|l| *l == s)
}

/// A label as the image holds it: a string, read back only as one of the
/// vocabulary's. Reading it allocates nothing: restoring through `String`
/// keys raised `checkpoint_cycle`'s peak RSS by 4.4 MB.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Label(&'static str);

impl Snap for Label {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Label, SnapError> {
        intern_label(r.str()?)
            .map(Label)
            .ok_or(SnapError::Corrupt("a counter label no run counts"))
    }
}

impl NodeStats {
    pub(crate) fn count_sent(&mut self, label: &'static str) {
        *self.sent.entry(label).or_insert(0) += 1;
    }
    pub(crate) fn count_received(&mut self, label: &'static str) {
        *self.received.entry(label).or_insert(0) += 1;
    }
}

/// Label an eth message for the Fig 2/3 tallies.
pub(crate) fn eth_label(msg: &EthMessage) -> &'static str {
    match msg {
        EthMessage::Status(_) => "STATUS",
        EthMessage::NewBlockHashes(_) => "NEW_BLOCK_HASHES",
        EthMessage::Transactions(_) => "TRANSACTIONS",
        EthMessage::GetBlockHeaders { .. } => "GET_BLOCK_HEADERS",
        EthMessage::BlockHeaders(_) => "BLOCK_HEADERS",
        EthMessage::GetBlockBodies(_) => "GET_BLOCK_BODIES",
        EthMessage::BlockBodies(_) => "BLOCK_BODIES",
        EthMessage::NewBlock { .. } => "NEW_BLOCK",
        EthMessage::GetNodeData(_) => "GET_NODE_DATA",
        EthMessage::NodeData(_) => "NODE_DATA",
        EthMessage::GetReceipts(_) => "GET_RECEIPTS",
        EthMessage::Receipts(_) => "RECEIPTS",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethwire::{BlockId, Status};

    #[test]
    fn intern_label_covers_wire_and_disconnect_vocabulary() {
        assert_eq!(intern_label("TRANSACTIONS"), Some("TRANSACTIONS"));
        assert_eq!(intern_label("Too many peers"), Some("Too many peers"));
    }

    #[test]
    fn eth_labels_cover_all_messages() {
        let msgs = [
            EthMessage::Status(Status {
                protocol_version: 63,
                network_id: 1,
                total_difficulty: 1,
                best_hash: [0; 32],
                genesis_hash: [0; 32],
            }),
            EthMessage::Transactions(vec![]),
            EthMessage::GetBlockHeaders {
                start: BlockId::Number(0),
                max_headers: 1,
                skip: 0,
                reverse: false,
            },
            EthMessage::BlockHeaders(vec![]),
            EthMessage::NewBlockHashes(vec![]),
            EthMessage::GetBlockBodies(vec![]),
            EthMessage::BlockBodies(vec![]),
            EthMessage::NewBlock {
                block: vec![],
                total_difficulty: 0,
            },
            EthMessage::GetNodeData(vec![]),
            EthMessage::NodeData(vec![]),
            EthMessage::GetReceipts(vec![]),
            EthMessage::Receipts(vec![]),
        ];
        let labels: std::collections::BTreeSet<&str> = msgs.iter().map(eth_label).collect();
        assert_eq!(labels.len(), msgs.len(), "labels must be distinct");
        assert!(labels.iter().all(|l| intern_label(l) == Some(*l)));
    }

    #[test]
    fn stats_counters_accumulate() {
        let mut stats = NodeStats::default();
        stats.count_sent("TRANSACTIONS");
        stats.count_sent("TRANSACTIONS");
        stats.count_received("HELLO");
        assert_eq!(stats.sent["TRANSACTIONS"], 2);
        assert_eq!(stats.received["HELLO"], 1);
    }

    /// Counters whose `sent` map holds `entries` as written, the rest
    /// empty.
    fn image(entries: &[(&str, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(entries.len());
        for (label, v) in entries {
            w.str(label);
            w.u64(*v);
        }
        // The other three maps, both lists and both counts: all empty.
        for _ in 0..7 {
            w.u64(0);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<NodeStats, SnapError> {
        let mut r = SnapReader::new(bytes);
        let stats = NodeStats::unsnap(&mut r)?;
        r.finish()?;
        Ok(stats)
    }

    /// The counters round-trip, and restore refuses a label no run
    /// counts and a label written twice.
    #[test]
    fn restore_refuses_labels_no_run_writes() {
        let mut stats = NodeStats::default();
        stats.count_sent("HELLO");
        stats.count_sent("TRANSACTIONS");
        let mut w = SnapWriter::new();
        stats.snap(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes, image(&[("HELLO", 1), ("TRANSACTIONS", 1)]));
        assert_eq!(restore(&bytes), Ok(stats));

        assert_eq!(
            restore(&image(&[("FUTURE_MESSAGE", 1)])),
            Err(SnapError::Corrupt("a counter label no run counts")),
        );
        assert_eq!(
            restore(&image(&[("HELLO", 1), ("HELLO", 2)])),
            Err(SnapError::Corrupt("set or map keys not strictly ascending")),
        );
    }
}
