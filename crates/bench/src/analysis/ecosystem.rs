//! §6.1 ecosystem analysis: DEVp2p services (Table 3), networks and
//! genesis hashes (Fig 9), and the non-productive-peer breakdown.

use super::{tally, CountRow};
use nodefinder::DataStore;
use std::collections::BTreeMap;

/// The §6.1 funnel: node IDs seen → RLPx connected → HELLO → STATUS →
/// Mainnet.
#[derive(Debug, Clone, PartialEq)]
pub struct EcosystemFunnel {
    /// Unique node IDs observed at any layer (paper: 3,023,275).
    pub total_ids: u64,
    /// Nodes that completed a DEVp2p HELLO (paper: 356,492).
    pub hello_nodes: u64,
    /// Nodes that produced an Ethereum STATUS (paper: 323,584).
    pub status_nodes: u64,
    /// Non-Classic Mainnet nodes.
    pub mainnet_nodes: u64,
    /// Fraction of HELLO nodes that are useless to Mainnet (paper: 48.2%).
    pub useless_fraction: f64,
}

/// Compute the funnel.
pub fn funnel(store: &DataStore) -> EcosystemFunnel {
    let total_ids = store.total_ids() as u64;
    let hello_nodes = store.hello_nodes().count() as u64;
    let status_nodes = store.status_nodes().count() as u64;
    let mainnet_nodes = store.mainnet_nodes().count() as u64;
    let useless_fraction = if hello_nodes > 0 {
        1.0 - mainnet_nodes as f64 / hello_nodes as f64
    } else {
        0.0
    };
    EcosystemFunnel {
        total_ids,
        hello_nodes,
        status_nodes,
        mainnet_nodes,
        useless_fraction,
    }
}

/// Table 3: the primary service each HELLO node advertises.
///
/// Following the paper, a node advertising `eth` counts as Ethereum; other
/// nodes are labelled by their first capability.
pub fn services_table(store: &DataStore) -> Vec<CountRow> {
    let labels = store.hello_nodes().filter_map(|obs| {
        let hello = obs.hello.as_ref()?;
        let caps: Vec<&str> = hello
            .capabilities
            .iter()
            .map(|c| c.split('/').next().unwrap_or(c))
            .collect();
        let label = if caps.contains(&"eth") {
            "Ethereum (eth)"
        } else if let Some(first) = caps.first() {
            match *first {
                "bzz" => "Swarm (bzz)",
                "les" => "LES (les)",
                "exp" => "Expanse (exp)",
                "istanbul" => "Istanbul BFT (istanbul)",
                "shh" => "Whisper (shh)",
                "dbix" => "DubaiCoin (dbix)",
                "pip" => "PIP (pip)",
                "mc" => "MOAC (mc)",
                "ele" => "Elementrem (ele)",
                _ => "Other",
            }
        } else {
            "Unknown"
        };
        Some(label)
    });
    tally(labels)
}

/// Fig 9 data: distinct network IDs and genesis hashes among STATUS nodes,
/// plus per-network node counts.
#[derive(Debug, Clone)]
pub struct NetworkBreakdown {
    /// Count of distinct network IDs (paper: 4,076).
    pub distinct_networks: usize,
    /// Count of distinct genesis hashes (paper: 18,829).
    pub distinct_genesis: usize,
    /// Nodes per network ID, descending.
    pub per_network: Vec<CountRow>,
    /// Networks observed on exactly one node (paper: 1,402).
    pub single_node_networks: usize,
    /// Non-Mainnet peers advertising the Mainnet genesis (paper: 10,497).
    pub mainnet_genesis_misuse: u64,
}

/// Compute the network/genesis breakdown.
pub fn networks(store: &DataStore) -> NetworkBreakdown {
    let mut genesis_set = std::collections::BTreeSet::new();
    let mut network_counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut misuse = 0u64;
    for obs in store.status_nodes() {
        let st = obs.status.as_ref().unwrap();
        genesis_set.insert(st.genesis_hash);
        *network_counts.entry(st.network_id).or_insert(0) += 1;
        if st.network_id != ethwire::MAINNET_NETWORK_ID
            && st.genesis_hash == ethwire::MAINNET_GENESIS
        {
            misuse += 1;
        }
    }
    let total: u64 = network_counts.values().sum();
    let single = network_counts.values().filter(|&&c| c == 1).count();
    let mut per_network: Vec<CountRow> = network_counts
        .iter()
        .map(|(id, count)| CountRow {
            label: network_label(*id),
            count: *count,
            percent: 100.0 * *count as f64 / total.max(1) as f64,
        })
        .collect();
    per_network.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
    NetworkBreakdown {
        distinct_networks: network_counts.len(),
        distinct_genesis: genesis_set.len(),
        per_network,
        single_node_networks: single,
        mainnet_genesis_misuse: misuse,
    }
}

fn network_label(id: u64) -> String {
    match id {
        1 => "Mainnet/Classic (1)".into(),
        3 => "Ropsten (3)".into(),
        4 => "Rinkeby (4)".into(),
        8 => "Ubiq (8)".into(),
        42 => "Kovan (42)".into(),
        7_762_959 => "Musicoin".into(),
        3_125_659_152 => "Pirl".into(),
        other => format!("network {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode::NodeId;
    use nodefinder::{ConnLog, ConnOutcome, ConnType, CrawlLog, HelloInfo, StatusInfo};
    use std::net::Ipv4Addr;

    fn conn(
        tag: u8,
        caps: &[&str],
        network: Option<u64>,
        genesis: [u8; 32],
        dao: Option<bool>,
    ) -> ConnLog {
        ConnLog {
            instance: 0,
            ts_ms: 0,
            node_id: Some(NodeId([tag; 64])),
            ip: Ipv4Addr::new(10, 0, 0, tag),
            port: 30303,
            conn_type: ConnType::DynamicDial,
            latency_ms: 10,
            duration_ms: 100,
            hello: Some(HelloInfo {
                client_id: "x".into(),
                capabilities: caps.iter().map(|c| c.to_string()).collect(),
                p2p_version: 5,
            }),
            status: network.map(|n| StatusInfo {
                protocol_version: 63,
                network_id: n,
                total_difficulty: 1,
                best_hash: [0u8; 32],
                genesis_hash: genesis,
            }),
            dao_fork: dao,
            outcome: ConnOutcome::DaoChecked,
            failure: None,
        }
    }

    fn store() -> DataStore {
        let mut log = CrawlLog::default();
        log.conns.push(conn(
            1,
            &["eth/62", "eth/63"],
            Some(1),
            ethwire::MAINNET_GENESIS,
            Some(true),
        ));
        log.conns.push(conn(
            2,
            &["eth/63"],
            Some(1),
            ethwire::MAINNET_GENESIS,
            Some(false),
        )); // classic
        log.conns.push(conn(3, &["bzz/1"], None, [0u8; 32], None));
        log.conns.push(conn(4, &["les/2"], None, [0u8; 32], None));
        log.conns
            .push(conn(5, &["eth/63"], Some(3), [7u8; 32], None)); // ropsten
        log.conns.push(conn(
            6,
            &["eth/63"],
            Some(999),
            ethwire::MAINNET_GENESIS,
            None,
        )); // misuse
        DataStore::from_log(&log)
    }

    #[test]
    fn funnel_counts() {
        let f = funnel(&store());
        assert_eq!(f.hello_nodes, 6);
        assert_eq!(f.status_nodes, 4);
        assert_eq!(f.mainnet_nodes, 1);
        assert!((f.useless_fraction - 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn services_identify_eth_and_others() {
        let rows = services_table(&store());
        let eth = rows.iter().find(|r| r.label == "Ethereum (eth)").unwrap();
        assert_eq!(eth.count, 4);
        assert!(rows.iter().any(|r| r.label == "Swarm (bzz)"));
        assert!(rows.iter().any(|r| r.label == "LES (les)"));
    }

    #[test]
    fn network_breakdown() {
        let nb = networks(&store());
        assert_eq!(nb.distinct_networks, 3); // 1, 3, 999
        assert_eq!(nb.mainnet_genesis_misuse, 1);
        assert_eq!(nb.per_network[0].label, "Mainnet/Classic (1)");
        assert_eq!(nb.per_network[0].count, 2);
        assert_eq!(nb.single_node_networks, 2);
    }
}
