//! §3 case-study analysis: message mixes (Figures 2/3), peer-count
//! convergence (Figure 4), and disconnect reasons (Table 1) from
//! instrumented behavioral nodes.

use super::CountRow;
use ethpop::NodeStats;

/// Figures 2/3 rows: per-message-type counts for one instrumented node.
pub fn message_mix(stats: &NodeStats, sent: bool) -> Vec<CountRow> {
    let map = if sent { &stats.sent } else { &stats.received };
    let total: u64 = map.values().sum();
    let mut rows: Vec<CountRow> = map
        .iter()
        .map(|(label, count)| CountRow {
            label: label.to_string(),
            count: *count,
            percent: 100.0 * *count as f64 / total.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
    rows
}

/// Table 1 rows: disconnect-reason tallies for one node.
pub fn disconnect_table(stats: &NodeStats, sent: bool) -> Vec<CountRow> {
    let map = if sent {
        &stats.disconnects_sent
    } else {
        &stats.disconnects_received
    };
    let total: u64 = map.values().sum();
    let mut rows: Vec<CountRow> = map
        .iter()
        .map(|(label, count)| CountRow {
            label: label.to_string(),
            count: *count,
            percent: 100.0 * *count as f64 / total.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
    rows
}

/// Figure 4 numbers: peer-count series plus occupancy statistics.
#[derive(Debug, Clone)]
pub struct PeerOccupancy {
    /// The raw (time ms, peers) series.
    pub series: Vec<(u64, usize)>,
    /// Maximum concurrent peers observed.
    pub max_peers_seen: usize,
    /// Fraction of samples at or above `limit` (the paper reports 99.1%
    /// for Geth at 25 and 91.5% for Parity at 50).
    pub occupancy_fraction: f64,
    /// First time the series reached `limit`, if ever.
    pub time_to_limit_ms: Option<u64>,
}

/// Analyze a peer-sample series against the client's limit.
pub fn peer_occupancy(stats: &NodeStats, limit: usize) -> PeerOccupancy {
    let series = stats.peer_samples.clone();
    let max_peers_seen = series.iter().map(|(_, p)| *p).max().unwrap_or(0);
    let at_limit = series.iter().filter(|(_, p)| *p >= limit).count();
    let time_to_limit_ms = series.iter().find(|(_, p)| *p >= limit).map(|(t, _)| *t);
    PeerOccupancy {
        occupancy_fraction: at_limit as f64 / series.len().max(1) as f64,
        series,
        max_peers_seen,
        time_to_limit_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> NodeStats {
        let mut s = NodeStats::default();
        s.sent.insert("TRANSACTIONS", 900);
        s.sent.insert("HELLO", 50);
        s.sent.insert("DISCONNECT", 50);
        s.received.insert("TRANSACTIONS", 300);
        s.disconnects_sent.insert("Too many peers", 95);
        s.disconnects_sent.insert("Useless peer", 5);
        s.peer_samples = vec![(0, 3), (60_000, 20), (120_000, 25), (180_000, 25)];
        s
    }

    #[test]
    fn message_mix_sorted_with_percent() {
        let rows = message_mix(&stats(), true);
        assert_eq!(rows[0].label, "TRANSACTIONS");
        assert!((rows[0].percent - 90.0).abs() < 1e-9);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn disconnect_percentages() {
        let rows = disconnect_table(&stats(), true);
        assert_eq!(rows[0].label, "Too many peers");
        assert!((rows[0].percent - 95.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy() {
        let occ = peer_occupancy(&stats(), 25);
        assert_eq!(occ.max_peers_seen, 25);
        assert!((occ.occupancy_fraction - 0.5).abs() < 1e-9);
        assert_eq!(occ.time_to_limit_ms, Some(120_000));
    }

    #[test]
    fn occupancy_empty_series() {
        let occ = peer_occupancy(&NodeStats::default(), 25);
        assert_eq!(occ.max_peers_seen, 0);
        assert_eq!(occ.occupancy_fraction, 0.0);
        assert_eq!(occ.time_to_limit_ms, None);
    }
}
