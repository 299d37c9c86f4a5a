//! §7.2 geography and network distribution (Figures 12 and 13).
//!
//! The paper resolved node IPs through GeoIP/AS databases. Our "database"
//! is a [`GeoDb`] built from the world's host metadata — the analysis code
//! path is identical: IP in, (country, AS) out, tally.

use super::{tally, CountRow};
use nodefinder::DataStore;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// An IP → (country, AS) resolver, standing in for MaxMind-style data.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    entries: BTreeMap<Ipv4Addr, (&'static str, &'static str)>,
}

impl GeoDb {
    /// Empty database.
    pub fn new() -> GeoDb {
        GeoDb::default()
    }

    /// Register an address.
    pub fn insert(&mut self, ip: Ipv4Addr, country: &'static str, asn: &'static str) {
        self.entries.insert(ip, (country, asn));
    }

    /// Build from a world's ground truth (the experiment harness does
    /// this; analysis itself never looks at any other ground-truth field).
    pub fn from_world(world: &ethpop::world::World) -> GeoDb {
        let mut db = GeoDb::new();
        for node in &world.nodes {
            db.insert(node.addr.ip, node.country, node.asn);
        }
        db
    }

    /// Look up an address.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(&'static str, &'static str)> {
        self.entries.get(&ip).copied()
    }
}

/// Fig 12: Mainnet nodes per country.
pub fn country_distribution(store: &DataStore, db: &GeoDb) -> Vec<CountRow> {
    let labels = store.mainnet_nodes().filter_map(|obs| {
        let ip = obs.ips.iter().next_back()?;
        Some(db.lookup(*ip).map(|(c, _)| c).unwrap_or("??").to_string())
    });
    tally(labels)
}

/// Fig 13: Mainnet nodes per autonomous system.
pub fn as_distribution(store: &DataStore, db: &GeoDb) -> Vec<CountRow> {
    let labels = store.mainnet_nodes().filter_map(|obs| {
        let ip = obs.ips.iter().next_back()?;
        Some(db.lookup(*ip).map(|(_, a)| a).unwrap_or("??").to_string())
    });
    tally(labels)
}

/// The §7.2 headline: the combined share of the top `k` ASes (paper: the
/// top 8 hold 44.8%).
pub fn top_as_share(rows: &[CountRow], k: usize) -> f64 {
    rows.iter().take(k).map(|r| r.percent).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode::NodeId;
    use nodefinder::{ConnLog, ConnOutcome, ConnType, CrawlLog, HelloInfo, StatusInfo};

    fn mainnet_conn(tag: u8, ip: Ipv4Addr) -> ConnLog {
        ConnLog {
            instance: 0,
            ts_ms: 0,
            node_id: Some(NodeId([tag; 64])),
            ip,
            port: 30303,
            conn_type: ConnType::DynamicDial,
            latency_ms: 10,
            duration_ms: 100,
            hello: Some(HelloInfo {
                client_id: "Geth/v1.8.11".into(),
                capabilities: vec!["eth/63".into()],
                p2p_version: 5,
            }),
            status: Some(StatusInfo {
                protocol_version: 63,
                network_id: 1,
                total_difficulty: 1,
                best_hash: [0u8; 32],
                genesis_hash: ethwire::MAINNET_GENESIS,
            }),
            dao_fork: Some(true),
            outcome: ConnOutcome::DaoChecked,
            failure: None,
        }
    }

    #[test]
    fn distributions_resolve_through_db() {
        let mut db = GeoDb::new();
        db.insert(Ipv4Addr::new(1, 1, 1, 1), "US", "Amazon");
        db.insert(Ipv4Addr::new(2, 2, 2, 2), "US", "Google");
        db.insert(Ipv4Addr::new(3, 3, 3, 3), "CN", "Alibaba");
        let mut log = CrawlLog::default();
        log.conns.push(mainnet_conn(1, Ipv4Addr::new(1, 1, 1, 1)));
        log.conns.push(mainnet_conn(2, Ipv4Addr::new(2, 2, 2, 2)));
        log.conns.push(mainnet_conn(3, Ipv4Addr::new(3, 3, 3, 3)));
        let store = DataStore::from_log(&log);
        let countries = country_distribution(&store, &db);
        assert_eq!(countries[0].label, "US");
        assert_eq!(countries[0].count, 2);
        let ases = as_distribution(&store, &db);
        assert_eq!(ases.len(), 3);
        assert!((top_as_share(&ases, 2) - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_ips_labelled() {
        let db = GeoDb::new();
        let mut log = CrawlLog::default();
        log.conns.push(mainnet_conn(1, Ipv4Addr::new(9, 9, 9, 9)));
        let store = DataStore::from_log(&log);
        let rows = country_distribution(&store, &db);
        assert_eq!(rows[0].label, "??");
    }
}
