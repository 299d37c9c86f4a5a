//! §6.2 client analysis: implementations (Table 4), version stability
//! (Table 5), and version adoption over time (Fig 10).

use super::{tally, CountRow};
use ethpop::{is_stable_build, parse_client_id};
use nodefinder::{CrawlLog, DataStore};
use std::collections::BTreeMap;

/// Table 4: client families among non-Classic Mainnet nodes.
pub fn client_table(store: &DataStore) -> Vec<CountRow> {
    let labels = store.mainnet_nodes().filter_map(|obs| {
        let hello = obs.hello.as_ref()?;
        Some(parse_client_id(&hello.client_id).0)
    });
    tally(labels)
}

/// One family's stability split for Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityRow {
    /// Client family.
    pub family: String,
    /// Nodes on stable builds.
    pub stable: u64,
    /// Nodes on beta/rc/unstable builds.
    pub unstable: u64,
    /// Stable share in percent.
    pub stable_percent: f64,
    /// Version strings seen, descending by count.
    pub top_versions: Vec<CountRow>,
}

/// Table 5: stable/unstable mixes and top versions for Geth and Parity.
pub fn version_stability(store: &DataStore) -> Vec<StabilityRow> {
    let mut out = Vec::new();
    for family in ["Geth", "Parity"] {
        let mut stable = 0u64;
        let mut unstable = 0u64;
        let mut versions: Vec<String> = Vec::new();
        for obs in store.mainnet_nodes() {
            let Some(hello) = obs.hello.as_ref() else {
                continue;
            };
            let (fam, version) = parse_client_id(&hello.client_id);
            if fam != family {
                continue;
            }
            if is_stable_build(&hello.client_id) {
                stable += 1;
            } else {
                unstable += 1;
            }
            if let Some(v) = version {
                versions.push(v);
            }
        }
        let total = stable + unstable;
        out.push(StabilityRow {
            family: family.to_string(),
            stable,
            unstable,
            stable_percent: 100.0 * stable as f64 / total.max(1) as f64,
            top_versions: tally(versions),
        });
    }
    out
}

/// Fig 10: per-window population of each Geth version, from timestamped
/// HELLO observations. Returns `(version → counts per window)`.
pub fn version_timeline(
    log: &CrawlLog,
    family: &str,
    window_ms: u64,
    n_windows: usize,
) -> BTreeMap<String, Vec<u64>> {
    // Within a window, count each node once (its latest observed version).
    let mut per_window: Vec<BTreeMap<enode::NodeId, String>> = vec![BTreeMap::new(); n_windows];
    for conn in &log.conns {
        let (Some(id), Some(hello)) = (conn.node_id, conn.hello.as_ref()) else {
            continue;
        };
        let (fam, version) = parse_client_id(&hello.client_id);
        if fam != family {
            continue;
        }
        let Some(version) = version else { continue };
        let w = (conn.ts_ms / window_ms.max(1)) as usize;
        if w < n_windows {
            per_window[w].insert(id, version);
        }
    }
    let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (w, nodes) in per_window.iter().enumerate() {
        for version in nodes.values() {
            out.entry(version.clone())
                .or_insert_with(|| vec![0; n_windows])[w] += 1;
        }
    }
    out
}

/// The §6.2 "stragglers" stat: fraction of a family's nodes at or below a
/// version (lexicographic-aware compare on `vX.Y.Z`).
pub fn fraction_at_or_below(store: &DataStore, family: &str, version: &str) -> f64 {
    let cutoff = parse_version(version);
    let mut total = 0u64;
    let mut old = 0u64;
    for obs in store.mainnet_nodes() {
        let Some(hello) = obs.hello.as_ref() else {
            continue;
        };
        let (fam, v) = parse_client_id(&hello.client_id);
        if fam != family {
            continue;
        }
        total += 1;
        if let Some(v) = v.and_then(|v| parse_version(&v)) {
            if Some(v) <= cutoff {
                old += 1;
            }
        }
    }
    old as f64 / total.max(1) as f64
}

fn parse_version(v: &str) -> Option<(u32, u32, u32)> {
    let v = v.trim_start_matches('v');
    let mut parts = v.split('.');
    Some((
        parts.next()?.parse().ok()?,
        parts.next()?.parse().ok()?,
        parts.next()?.parse().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode::NodeId;
    use nodefinder::{ConnLog, ConnOutcome, ConnType, HelloInfo, StatusInfo};
    use std::net::Ipv4Addr;

    fn mainnet_conn(tag: u8, ts: u64, client_id: &str) -> ConnLog {
        ConnLog {
            instance: 0,
            ts_ms: ts,
            node_id: Some(NodeId([tag; 64])),
            ip: Ipv4Addr::new(10, 0, 0, tag),
            port: 30303,
            conn_type: ConnType::DynamicDial,
            latency_ms: 10,
            duration_ms: 100,
            hello: Some(HelloInfo {
                client_id: client_id.into(),
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

    fn demo_log() -> CrawlLog {
        let mut log = CrawlLog::default();
        log.conns
            .push(mainnet_conn(1, 0, "Geth/v1.8.11-stable/linux-amd64/go1.10"));
        log.conns
            .push(mainnet_conn(2, 0, "Geth/v1.8.10-stable/linux-amd64/go1.10"));
        log.conns
            .push(mainnet_conn(3, 0, "Geth/v1.6.7-stable/linux-amd64/go1.8"));
        log.conns.push(mainnet_conn(
            4,
            0,
            "Parity/v1.10.3-beta/x86_64-linux-gnu/rustc1.24.1",
        ));
        log.conns.push(mainnet_conn(
            5,
            0,
            "Parity/v1.10.6-stable/x86_64-linux-gnu/rustc1.24.1",
        ));
        log
    }

    #[test]
    fn table4_families() {
        let store = DataStore::from_log(&demo_log());
        let rows = client_table(&store);
        assert_eq!(rows[0].label, "Geth");
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[1].label, "Parity");
        assert_eq!(rows[1].count, 2);
    }

    #[test]
    fn table5_stability() {
        let store = DataStore::from_log(&demo_log());
        let rows = version_stability(&store);
        let geth = &rows[0];
        assert_eq!(geth.family, "Geth");
        assert_eq!(geth.stable, 3);
        assert_eq!(geth.unstable, 0);
        let parity = &rows[1];
        assert_eq!(parity.stable, 1);
        assert_eq!(parity.unstable, 1);
        assert!((parity.stable_percent - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fig10_timeline_counts_nodes_once_per_window() {
        let mut log = CrawlLog::default();
        // node 1 seen twice in window 0 on v1.8.10, then upgrades.
        log.conns.push(mainnet_conn(1, 10, "Geth/v1.8.10-stable/x"));
        log.conns.push(mainnet_conn(1, 20, "Geth/v1.8.10-stable/x"));
        log.conns
            .push(mainnet_conn(1, 1010, "Geth/v1.8.11-stable/x"));
        log.conns.push(mainnet_conn(2, 15, "Geth/v1.8.11-stable/x"));
        let tl = version_timeline(&log, "Geth", 1000, 2);
        assert_eq!(tl["v1.8.10"], vec![1, 0]);
        assert_eq!(tl["v1.8.11"], vec![1, 1]);
    }

    #[test]
    fn stragglers_fraction() {
        let store = DataStore::from_log(&demo_log());
        let frac = fraction_at_or_below(&store, "Geth", "v1.7.0");
        assert!((frac - 1.0 / 3.0).abs() < 1e-9);
        let frac_all = fraction_at_or_below(&store, "Geth", "v9.9.9");
        assert!((frac_all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn version_parsing() {
        assert_eq!(parse_version("v1.8.11"), Some((1, 8, 11)));
        assert_eq!(parse_version("2.0.0"), Some((2, 0, 0)));
        assert_eq!(parse_version("garbage"), None);
        assert!(parse_version("v1.10.3") > parse_version("v1.9.9"));
    }
}
