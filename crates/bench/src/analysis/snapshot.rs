//! §7 snapshot analysis: network size (Table 6), node freshness (Fig 14),
//! and connection latency (Fig 13's CDF companion).

use super::Cdf;
use nodefinder::DataStore;

/// Table 6-style size comparison rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeComparison {
    /// Mainnet nodes NodeFinder saw in the window (incoming + outgoing).
    pub nodefinder: u64,
    /// Mainnet nodes of those that are publicly reachable (answered a
    /// dial) — what a Bitnodes/Gencer-style reachable-only crawler sees.
    pub nodefinder_reachable: u64,
    /// Unreachable remainder (incoming-only).
    pub nodefinder_unreachable: u64,
    /// NodeFinder ÷ reachable-only: the paper's headline 2.3×–3.6× factor.
    pub advantage_factor: f64,
}

/// Compute the size comparison from a (snapshot-windowed) datastore.
pub fn size_comparison(store: &DataStore) -> SizeComparison {
    let mut total = 0u64;
    let mut reachable = 0u64;
    for obs in store.mainnet_nodes() {
        total += 1;
        if obs.ever_answered_dial {
            reachable += 1;
        }
    }
    SizeComparison {
        nodefinder: total,
        nodefinder_reachable: reachable,
        nodefinder_unreachable: total - reachable,
        advantage_factor: total as f64 / reachable.max(1) as f64,
    }
}

/// Invert the chain model's closed-form total difficulty back to a head
/// height. This plays the role of the paper's bestHash→block-number lookup
/// (they resolved hashes against a synced node's database; we resolve the
/// TD the same STATUS message carries — same information channel).
pub fn head_from_total_difficulty(td: u128) -> u64 {
    // td(n) = 131072·(n+1) + 500·n·(n+1)  →  500n² + 131572n + (131072 − td) = 0
    let a = 500.0f64;
    let b = 131_572.0f64;
    let c = 131_072.0f64 - td as f64;
    let disc = (b * b - 4.0 * a * c).max(0.0);
    let n = ((-b + disc.sqrt()) / (2.0 * a)).max(0.0) as u64;
    // Refine against the exact closed form.
    let td_at = |n: u64| -> u128 {
        let n = n as u128;
        131_072 * (n + 1) + 500 * n * (n + 1)
    };
    let mut best = n;
    for candidate in n.saturating_sub(2)..=n + 2 {
        if td_at(candidate) <= td {
            best = candidate;
        }
    }
    best
}

/// Fig 14 data: freshness (block lag behind the network head) for every
/// Mainnet node, plus the stuck-at-Byzantium count.
#[derive(Debug, Clone)]
pub struct Freshness {
    /// Head height inferred for the network (max over nodes).
    pub network_head: u64,
    /// Per-node lag behind the network head, in blocks.
    pub lags: Cdf,
    /// Fraction of nodes lagging more than `stale_threshold`.
    pub stale_fraction: f64,
    /// The threshold used, blocks.
    pub stale_threshold: u64,
    /// Nodes stuck exactly at the first post-Byzantium block.
    pub stuck_at_byzantium: u64,
}

/// Compute freshness over the Mainnet slice.
pub fn freshness(store: &DataStore, stale_threshold: u64) -> Freshness {
    let heads: Vec<u64> = store
        .mainnet_nodes()
        .filter_map(|o| {
            o.status
                .map(|s| head_from_total_difficulty(s.total_difficulty))
        })
        .collect();
    let network_head = heads.iter().copied().max().unwrap_or(0);
    let lags: Vec<u64> = heads.iter().map(|h| network_head - h).collect();
    let stale = lags.iter().filter(|&&l| l > stale_threshold).count();
    let stuck = heads
        .iter()
        .filter(|&&h| h == ethwire::BYZANTIUM_BLOCK + 1)
        .count() as u64;
    let n = lags.len().max(1);
    Freshness {
        network_head,
        lags: Cdf::new(lags),
        stale_fraction: stale as f64 / n as f64,
        stale_threshold,
        stuck_at_byzantium: stuck,
    }
}

/// Fig 13 companion: the CDF of observed connection latencies (socket
/// sRTT) across Mainnet nodes.
pub fn latency_cdf(store: &DataStore) -> Cdf {
    let samples: Vec<u64> = store
        .mainnet_nodes()
        .flat_map(|o| o.latencies_ms.iter().map(|&v| v as u64))
        .collect();
    Cdf::new(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode::NodeId;
    use ethwire::Chain;
    use ethwire::ChainConfig;
    use nodefinder::{ConnLog, ConnOutcome, ConnType, CrawlLog, HelloInfo, StatusInfo};
    use std::net::Ipv4Addr;

    fn mainnet_conn(tag: u8, head: u64, incoming: bool) -> ConnLog {
        let chain = Chain::new(ChainConfig::mainnet(), head);
        ConnLog {
            instance: 0,
            ts_ms: 0,
            node_id: Some(NodeId([tag; 64])),
            ip: Ipv4Addr::new(10, 0, 0, tag),
            port: 30303,
            conn_type: if incoming {
                ConnType::Incoming
            } else {
                ConnType::DynamicDial
            },
            latency_ms: 30 + tag as u32,
            duration_ms: 100,
            hello: Some(HelloInfo {
                client_id: "Geth/v1.8.11".into(),
                capabilities: vec!["eth/63".into()],
                p2p_version: 5,
            }),
            status: Some(StatusInfo {
                protocol_version: 63,
                network_id: 1,
                total_difficulty: chain.total_difficulty(),
                best_hash: chain.best_hash(),
                genesis_hash: ethwire::MAINNET_GENESIS,
            }),
            dao_fork: Some(true),
            outcome: ConnOutcome::DaoChecked,
            failure: None,
        }
    }

    #[test]
    fn td_inversion_is_exact() {
        for head in [0u64, 1, 100, 1_920_000, 4_370_001, 5_460_000] {
            let chain = Chain::new(ChainConfig::mainnet(), head);
            assert_eq!(
                head_from_total_difficulty(chain.total_difficulty()),
                head,
                "head {head}"
            );
        }
    }

    #[test]
    fn size_comparison_splits_reachability() {
        let mut log = CrawlLog::default();
        log.conns.push(mainnet_conn(1, 100, false));
        log.conns.push(mainnet_conn(2, 100, false));
        log.conns.push(mainnet_conn(3, 100, true)); // incoming only
        let store = DataStore::from_log(&log);
        let sc = size_comparison(&store);
        assert_eq!(sc.nodefinder, 3);
        assert_eq!(sc.nodefinder_reachable, 2);
        assert_eq!(sc.nodefinder_unreachable, 1);
        assert!((sc.advantage_factor - 1.5).abs() < 1e-9);
    }

    #[test]
    fn freshness_detects_stale_and_stuck() {
        let mut log = CrawlLog::default();
        log.conns.push(mainnet_conn(1, 5_460_000, false)); // fresh head
        log.conns.push(mainnet_conn(2, 5_459_990, false)); // fresh
        log.conns.push(mainnet_conn(3, 4_370_001, false)); // byzantium-stuck
        log.conns.push(mainnet_conn(4, 3_000_000, false)); // stale
        let store = DataStore::from_log(&log);
        let f = freshness(&store, 6_000);
        assert_eq!(f.network_head, 5_460_000);
        assert_eq!(f.stuck_at_byzantium, 1);
        assert!((f.stale_fraction - 0.5).abs() < 1e-9); // nodes 3 and 4
        assert_eq!(f.lags.len(), 4);
    }

    #[test]
    fn latency_cdf_collects_samples() {
        let mut log = CrawlLog::default();
        log.conns.push(mainnet_conn(1, 100, false));
        log.conns.push(mainnet_conn(2, 100, false));
        let store = DataStore::from_log(&log);
        let cdf = latency_cdf(&store);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.at(100), 1.0);
    }
}
