//! §5.4 data sanitization: detecting IPs that abusively generate node IDs.
//!
//! The paper found 15% of all node IDs parked at 5 IPs (one IP minted
//! 42,237 `ethereumjs-devp2p` identities, 80% seen exactly once, none
//! alive longer than 30 minutes) and defined a five-step filter:
//!
//! 1. choose nodes active for less than 30 minutes;
//! 2. group them by IP;
//! 3. exclude IPs mapping to fewer than 3 such nodes;
//! 4. compute each IP's new-node generation rate;
//! 5. flag IPs generating a new node every 30 minutes or faster.
//!
//! Flagged IPs' nodes (97,930 node IDs / 1,256 IPs on the live network)
//! are removed before any ecosystem analysis.

use crate::datastore::DataStore;
use enode::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Filter thresholds (defaults = the paper's).
#[derive(Debug, Clone, Copy)]
pub struct SanitizeParams {
    /// Step 1: "short-lived" means active **strictly less** than this, ms.
    /// The window is half-open — `span ∈ [0, short_lived_ms)` — so a node
    /// active for exactly the window length is NOT short-lived, matching
    /// the paper's "active for less than 30 minutes" and its daily-bucket
    /// convention (a boundary observation lands in the *longer* bucket).
    pub short_lived_ms: u64,
    /// Step 3: minimum short-lived nodes per IP to consider it.
    pub min_nodes_per_ip: usize,
    /// Step 5: flag IPs generating a new node at least this often, ms.
    /// Closed boundary — an IP minting a node every
    /// `max_generation_interval_ms` **exactly** ("every 30 minutes or
    /// faster") is flagged.
    pub max_generation_interval_ms: u64,
}

impl SanitizeParams {
    /// The paper's thresholds at full time scale.
    pub fn paper() -> SanitizeParams {
        SanitizeParams {
            short_lived_ms: 30 * 60 * 1000,
            min_nodes_per_ip: 3,
            max_generation_interval_ms: 30 * 60 * 1000,
        }
    }

    /// The same thresholds under a compressed clock (`day_ms` simulated
    /// milliseconds per paper-day).
    pub fn scaled(day_ms: u64) -> SanitizeParams {
        let day_real_ms = 24 * 3600 * 1000u64;
        let scale = |v: u64| ((v as u128 * day_ms as u128) / day_real_ms as u128).max(1) as u64;
        SanitizeParams {
            short_lived_ms: scale(30 * 60 * 1000),
            min_nodes_per_ip: 3,
            max_generation_interval_ms: scale(30 * 60 * 1000),
        }
    }
}

/// What the filter found and removed.
#[derive(Debug, Clone)]
pub struct SanitizeReport {
    /// IPs flagged as abusive.
    pub abusive_ips: BTreeSet<Ipv4Addr>,
    /// Node IDs removed.
    pub removed_nodes: BTreeSet<NodeId>,
    /// Node IDs kept.
    pub kept_nodes: usize,
    /// Fraction of all node IDs removed.
    pub removed_fraction: f64,
}

/// Run the five-step filter; returns a sanitized copy of the store plus
/// the report.
pub fn sanitize(store: &DataStore, params: SanitizeParams) -> (DataStore, SanitizeReport) {
    // Step 1: short-lived nodes.
    // Step 2: group by IP (a node seen at several IPs counts toward each).
    let mut by_ip: BTreeMap<Ipv4Addr, Vec<(u64, NodeId)>> = BTreeMap::new();
    for obs in store.nodes.values() {
        // Half-open window: strictly less. `span == short_lived_ms` is
        // long-lived (see SanitizeParams::short_lived_ms).
        if obs.active_span_ms() < params.short_lived_ms {
            for ip in &obs.ips {
                by_ip
                    .entry(*ip)
                    .or_default()
                    .push((obs.first_seen_ms, obs.id));
            }
        }
    }

    let mut abusive_ips = BTreeSet::new();
    for (ip, mut nodes) in by_ip {
        // Step 3: need at least `min_nodes_per_ip`.
        if nodes.len() < params.min_nodes_per_ip {
            continue;
        }
        // Step 4: generation rate = observed span / (count - 1).
        nodes.sort();
        let first = nodes.first().unwrap().0;
        let last = nodes.last().unwrap().0;
        let span = last.saturating_sub(first);
        let rate_interval = span / (nodes.len() as u64 - 1).max(1);
        // Step 5: flag fast generators.
        if rate_interval <= params.max_generation_interval_ms {
            abusive_ips.insert(ip);
        }
    }

    // Remove every node whose entire IP set is abusive (a node also seen
    // at a clean IP survives). §5.4 also excludes nodes that were running
    // NodeFinder itself — the crawlers discover each other (§5.2) and must
    // not be counted as part of the ecosystem.
    let mut sanitized = DataStore::default();
    let mut removed_nodes = BTreeSet::new();
    for (id, obs) in &store.nodes {
        let all_abusive = !obs.ips.is_empty() && obs.ips.iter().all(|ip| abusive_ips.contains(ip));
        let is_nodefinder = obs
            .hello
            .as_ref()
            .map(|h| h.client_id.contains("NodeFinder"))
            .unwrap_or(false);
        if all_abusive || is_nodefinder {
            removed_nodes.insert(*id);
        } else {
            sanitized.nodes.insert(obs.id, obs.clone());
        }
    }

    let total = store.nodes.len().max(1);
    let report = SanitizeReport {
        removed_fraction: removed_nodes.len() as f64 / total as f64,
        kept_nodes: sanitized.nodes.len(),
        abusive_ips,
        removed_nodes,
    };
    (sanitized, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datastore::NodeObservation;

    fn obs(tag: u16, ip: Ipv4Addr, first: u64, span: u64) -> NodeObservation {
        let mut id = [0u8; 64];
        id[0] = (tag >> 8) as u8;
        id[1] = tag as u8;
        let mut o = NodeObservation {
            id: NodeId(id),
            ips: BTreeSet::new(),
            port: 30303,
            first_seen_ms: first,
            last_seen_ms: first + span,
            discovery_sightings: 1,
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
        };
        o.ips.insert(ip);
        o
    }

    fn store_of(observations: Vec<NodeObservation>) -> DataStore {
        DataStore {
            nodes: observations.into_iter().map(|o| (o.id, o)).collect(),
        }
    }

    const MIN30: u64 = 30 * 60 * 1000;

    #[test]
    fn spammer_ip_detected_and_removed() {
        let spam_ip = Ipv4Addr::new(149, 129, 129, 190);
        let clean_ip = Ipv4Addr::new(8, 8, 8, 8);
        let mut observations = Vec::new();
        // 20 short-lived ids from one IP, one every 5 minutes.
        for i in 0..20u16 {
            observations.push(obs(i, spam_ip, i as u64 * 5 * 60_000, 60_000));
        }
        // A clean long-lived node.
        observations.push(obs(1000, clean_ip, 0, MIN30 * 10));
        let store = store_of(observations);
        let (clean, report) = sanitize(&store, SanitizeParams::paper());
        assert!(report.abusive_ips.contains(&spam_ip));
        assert!(!report.abusive_ips.contains(&clean_ip));
        assert_eq!(report.removed_nodes.len(), 20);
        assert_eq!(clean.total_ids(), 1);
        assert!((report.removed_fraction - 20.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn slow_generators_not_flagged() {
        let ip = Ipv4Addr::new(9, 9, 9, 9);
        // 5 short-lived nodes but spread over days: one per 4 hours.
        let observations = (0..5u16)
            .map(|i| obs(i, ip, i as u64 * 4 * 3600 * 1000, 60_000))
            .collect();
        let store = store_of(observations);
        let (clean, report) = sanitize(&store, SanitizeParams::paper());
        assert!(report.abusive_ips.is_empty());
        assert_eq!(clean.total_ids(), 5);
    }

    #[test]
    fn few_nodes_per_ip_not_flagged() {
        let ip = Ipv4Addr::new(9, 9, 9, 9);
        let observations = (0..2u16)
            .map(|i| obs(i, ip, i as u64 * 1000, 100))
            .collect();
        let store = store_of(observations);
        let (_, report) = sanitize(&store, SanitizeParams::paper());
        assert!(report.abusive_ips.is_empty());
    }

    #[test]
    fn long_lived_nodes_on_spam_ip_survive_if_also_elsewhere() {
        let spam_ip = Ipv4Addr::new(1, 1, 1, 1);
        let clean_ip = Ipv4Addr::new(2, 2, 2, 2);
        let mut observations: Vec<NodeObservation> = (0..10u16)
            .map(|i| obs(i, spam_ip, i as u64 * 60_000, 1000))
            .collect();
        // One short-lived node seen at both the spam IP and a clean IP.
        let mut dual = obs(500, spam_ip, 0, 1000);
        dual.ips.insert(clean_ip);
        observations.push(dual);
        let store = store_of(observations);
        let (clean, report) = sanitize(&store, SanitizeParams::paper());
        assert!(report.abusive_ips.contains(&spam_ip));
        let mut dual_id = [0u8; 64];
        dual_id[0] = (500u16 >> 8) as u8;
        dual_id[1] = 500u16 as u8;
        assert!(clean.nodes.contains_key(&NodeId(dual_id)));
    }

    #[test]
    fn short_lived_window_is_half_open_at_exactly_window() {
        // Boundary pin for the §5.4 step-1 window: spans of window-1,
        // window, and window+1 must classify as short-lived, long-lived,
        // long-lived respectively. A node whose `first_seen + span` lands
        // exactly on the window edge is consistently in the longer bucket.
        let ip = Ipv4Addr::new(5, 5, 5, 5);
        for (span, expect_flagged) in [(MIN30 - 1, true), (MIN30, false), (MIN30 + 1, false)] {
            // 10 nodes of identical span minted every 5 minutes: abusive
            // iff the span counts as short-lived.
            let observations = (0..10u16)
                .map(|i| obs(i, ip, i as u64 * 5 * 60_000, span))
                .collect();
            let store = store_of(observations);
            let (clean, report) = sanitize(&store, SanitizeParams::paper());
            assert_eq!(
                report.abusive_ips.contains(&ip),
                expect_flagged,
                "span {span}"
            );
            assert_eq!(
                clean.total_ids(),
                if expect_flagged { 0 } else { 10 },
                "span {span}"
            );
        }
    }

    #[test]
    fn generation_interval_boundary_is_closed() {
        // Step-5 pin: "a new node every 30 minutes or faster" — an IP
        // minting exactly one node per window is flagged; one minting a
        // hair slower is not.
        let ip = Ipv4Addr::new(6, 6, 6, 6);
        for (interval, expect_flagged) in [(MIN30, true), (MIN30 + 60, false)] {
            let observations = (0..4u16)
                .map(|i| obs(i, ip, i as u64 * interval, 1000))
                .collect();
            let store = store_of(observations);
            let (_, report) = sanitize(&store, SanitizeParams::paper());
            assert_eq!(
                report.abusive_ips.contains(&ip),
                expect_flagged,
                "interval {interval}"
            );
        }
    }

    #[test]
    fn scaled_params_shrink_with_clock() {
        let p = SanitizeParams::scaled(10 * 60 * 1000); // 10-min days
        assert!(p.short_lived_ms < SanitizeParams::paper().short_lived_ms);
        assert_eq!(p.min_nodes_per_ip, 3);
        assert!(p.short_lived_ms >= 1);
    }

    #[test]
    fn scaled_params_clamp_to_one_ms_at_tiny_day() {
        // Regression: with a degenerate compressed clock the integer
        // scaling would truncate every window to 0 ms, making *every*
        // node "short-lived" (0-duration) and every IP a "generator"
        // (interval <= 0 always true). The `.max(1)` clamp keeps both
        // windows at >= 1 ms.
        for day_ms in [1u64, 2, 10, 100, 1_000] {
            let p = SanitizeParams::scaled(day_ms);
            assert!(p.short_lived_ms >= 1, "day_ms={day_ms}");
            assert!(p.max_generation_interval_ms >= 1, "day_ms={day_ms}");
            assert_eq!(p.min_nodes_per_ip, 3, "count thresholds never scale");
        }
        // And the clamp engages exactly where truncation would hit zero:
        // 30 min of a 1 ms day is far below one tick.
        assert_eq!(SanitizeParams::scaled(1).short_lived_ms, 1);
        assert_eq!(SanitizeParams::scaled(1).max_generation_interval_ms, 1);
    }

    #[test]
    fn empty_store_is_noop() {
        let (clean, report) = sanitize(&DataStore::default(), SanitizeParams::paper());
        assert_eq!(clean.total_ids(), 0);
        assert_eq!(report.removed_fraction, 0.0);
    }
}
