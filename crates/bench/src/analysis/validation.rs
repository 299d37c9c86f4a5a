//! §5.2/§5.3 validation analyses: dial-rate series (Figures 5–8) and the
//! Ethernodes comparison (Table 2).

use super::bin_by_window;
use enode::NodeId;
use nodefinder::{CrawlLog, DataStore, DialEventKind};
use std::collections::BTreeSet;

/// Per-window (per-"day") crawler rate series — Figures 5, 6, 7.
#[derive(Debug, Clone)]
pub struct RateSeries {
    /// Discovery attempts per window (Fig 5, upper).
    pub discovery_attempts: Vec<u64>,
    /// Dynamic-dial attempts per window (Fig 5, lower).
    pub dynamic_dial_attempts: Vec<u64>,
    /// Unique nodes dynamic-dialed per window (Fig 6).
    pub unique_dialed: Vec<u64>,
    /// Unique nodes that responded per window (Fig 7).
    pub unique_responded: Vec<u64>,
}

/// Build the Fig 5–7 series from a merged log.
pub fn rate_series(log: &CrawlLog, window_ms: u64, n_windows: usize) -> RateSeries {
    let discovery_attempts = bin_by_window(
        log.events
            .iter()
            .filter(|e| e.kind == DialEventKind::DiscoveryAttempt)
            .map(|e| e.ts_ms),
        window_ms,
        n_windows,
    );
    let dynamic_dial_attempts = bin_by_window(
        log.events
            .iter()
            .filter(|e| e.kind == DialEventKind::DynamicDialAttempt)
            .map(|e| e.ts_ms),
        window_ms,
        n_windows,
    );
    let mut dialed: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n_windows];
    let mut responded: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n_windows];
    for e in &log.events {
        let w = (e.ts_ms / window_ms.max(1)) as usize;
        if w >= n_windows {
            continue;
        }
        match e.kind {
            DialEventKind::DynamicDialAttempt => {
                dialed[w].insert(e.node_id);
            }
            DialEventKind::DialResponded => {
                responded[w].insert(e.node_id);
            }
            _ => {}
        }
    }
    RateSeries {
        discovery_attempts,
        dynamic_dial_attempts,
        unique_dialed: dialed.iter().map(|s| s.len() as u64).collect(),
        unique_responded: responded.iter().map(|s| s.len() as u64).collect(),
    }
}

/// Fig 8: per-window dial counts against one specific node (the paper
/// tracks a bootstrap node: ≈6 dynamic + ≈44 static per day).
#[derive(Debug, Clone)]
pub struct TargetDials {
    /// Dynamic dials per window.
    pub dynamic: Vec<u64>,
    /// Static dials per window.
    pub static_dials: Vec<u64>,
}

/// Count dials against `target` per window.
pub fn dials_to_target(
    log: &CrawlLog,
    target: &NodeId,
    window_ms: u64,
    n_windows: usize,
) -> TargetDials {
    TargetDials {
        dynamic: bin_by_window(
            log.events
                .iter()
                .filter(|e| e.kind == DialEventKind::DynamicDialAttempt && e.node_id == *target)
                .map(|e| e.ts_ms),
            window_ms,
            n_windows,
        ),
        static_dials: bin_by_window(
            log.events
                .iter()
                .filter(|e| e.kind == DialEventKind::StaticDialAttempt && e.node_id == *target)
                .map(|e| e.ts_ms),
            window_ms,
            n_windows,
        ),
    }
}

/// Table 2: intersections between the Ethernodes-style collector's Mainnet
/// list and NodeFinder's (split by reachability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionTable {
    /// |EN| — nodes the Ethernodes-style collector attributes to Mainnet.
    pub en: u64,
    /// |NF| — NodeFinder's Mainnet set.
    pub nf: u64,
    /// |NF ∩ reachable|.
    pub nfr: u64,
    /// |NF ∩ unreachable|.
    pub nfu: u64,
    /// |EN ∩ NF|.
    pub en_and_nf: u64,
    /// |EN ∩ NFR|.
    pub en_and_nfr: u64,
    /// |EN ∩ NFU|.
    pub en_and_nfu: u64,
    /// EN nodes NodeFinder never classified as Mainnet.
    pub en_only: u64,
}

/// The Ethernodes-style set: network id 1 **claimed** + Mainnet genesis —
/// no DAO check, mirroring §5.3's filtering of the ethernodes.org list.
pub fn ethernodes_mainnet_set(store: &DataStore) -> BTreeSet<NodeId> {
    store
        .status_nodes()
        .filter(|o| {
            let st = o.status.as_ref().unwrap();
            st.network_id == ethwire::MAINNET_NETWORK_ID
                && st.genesis_hash == ethwire::MAINNET_GENESIS
        })
        .map(|o| o.id)
        .collect()
}

/// Build Table 2 from the two collectors' datastores.
pub fn intersection_table(nodefinder: &DataStore, ethernodes: &DataStore) -> IntersectionTable {
    let en = ethernodes_mainnet_set(ethernodes);
    let nf: BTreeSet<NodeId> = nodefinder.mainnet_nodes().map(|o| o.id).collect();
    let nfr: BTreeSet<NodeId> = nodefinder
        .mainnet_nodes()
        .filter(|o| o.ever_answered_dial)
        .map(|o| o.id)
        .collect();
    let nfu: BTreeSet<NodeId> = nf.difference(&nfr).copied().collect();
    IntersectionTable {
        en: en.len() as u64,
        nf: nf.len() as u64,
        nfr: nfr.len() as u64,
        nfu: nfu.len() as u64,
        en_and_nf: en.intersection(&nf).count() as u64,
        en_and_nfr: en.intersection(&nfr).count() as u64,
        en_and_nfu: en.intersection(&nfu).count() as u64,
        en_only: en.difference(&nf).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefinder::DialEvent;
    use std::net::Ipv4Addr;

    fn ev(ts: u64, tag: u8, kind: DialEventKind) -> DialEvent {
        DialEvent {
            instance: 0,
            ts_ms: ts,
            node_id: NodeId([tag; 64]),
            ip: Ipv4Addr::new(1, 1, 1, 1),
            kind,
        }
    }

    #[test]
    fn series_bin_correctly() {
        let mut log = CrawlLog::default();
        log.events.push(ev(10, 1, DialEventKind::DiscoveryAttempt));
        log.events
            .push(ev(20, 1, DialEventKind::DynamicDialAttempt));
        log.events
            .push(ev(25, 2, DialEventKind::DynamicDialAttempt));
        log.events
            .push(ev(30, 1, DialEventKind::DynamicDialAttempt)); // same node again
        log.events.push(ev(1020, 1, DialEventKind::DialResponded));
        let s = rate_series(&log, 1000, 2);
        assert_eq!(s.discovery_attempts, vec![1, 0]);
        assert_eq!(s.dynamic_dial_attempts, vec![3, 0]);
        assert_eq!(s.unique_dialed, vec![2, 0]);
        assert_eq!(s.unique_responded, vec![0, 1]);
    }

    #[test]
    fn target_dials_filtered() {
        let mut log = CrawlLog::default();
        let boot = NodeId([9u8; 64]);
        for t in [100u64, 200, 300] {
            log.events.push(DialEvent {
                instance: 0,
                ts_ms: t,
                node_id: boot,
                ip: Ipv4Addr::new(5, 5, 5, 5),
                kind: DialEventKind::StaticDialAttempt,
            });
        }
        log.events
            .push(ev(150, 1, DialEventKind::StaticDialAttempt));
        let td = dials_to_target(&log, &boot, 1000, 1);
        assert_eq!(td.static_dials, vec![3]);
        assert_eq!(td.dynamic, vec![0]);
    }
}
