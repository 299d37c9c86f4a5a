//! End-to-end: NodeFinder crawls a synthetic world and recovers its
//! population through the wire.

use ethcrypto::secp256k1::SecretKey;
use ethpop::world::{TruthKind, World, WorldConfig};
use netsim::{HostAddr, HostMeta, Region};
use nodefinder::{CrawlerConfig, DataStore, NodeFinder};
use std::net::Ipv4Addr;

fn crawl(config: WorldConfig, run_ms: u64, n_crawlers: u32) -> (World, DataStore) {
    let mut world = World::build(config);
    let mut crawler_hosts = Vec::new();
    for i in 0..n_crawlers {
        let mut key_bytes = [0xC0u8; 32];
        key_bytes[31] = i as u8 + 1;
        let key = SecretKey::from_bytes(&key_bytes).unwrap();
        let crawler = NodeFinder::new(
            key,
            CrawlerConfig {
                instance: i,
                // compress the long intervals for the test world
                static_redial_interval_ms: 60_000,
                stale_after_ms: 10 * 60_000,
                probe_timeout_ms: 30_000,
                ..CrawlerConfig::default()
            },
            world.bootstrap.clone(),
        );
        let addr = HostAddr::new(Ipv4Addr::new(192, 17, 100, 10 + i as u8), 30303);
        let meta = HostMeta {
            country: "US",
            asn: "UIUC",
            region: Region::NorthAmerica,
            reachable: true,
        };
        let host = world.sim.add_host(addr, meta, Box::new(crawler));
        world.sim.schedule_start(host, 0);
        crawler_hosts.push(host);
    }
    world.sim.run_until(run_ms);
    let mut merged = nodefinder::CrawlLog::default();
    for host in crawler_hosts {
        let boxed = world.sim.remove_host_behaviour(host).unwrap();
        let crawler = boxed.into_any().downcast::<NodeFinder>().unwrap();
        merged.merge(crawler.log);
    }
    let store = DataStore::from_log(&merged);
    (world, store)
}

#[test]
fn crawler_discovers_most_reachable_nodes() {
    let config = WorldConfig {
        n_nodes: 50,
        duration_ms: 8 * 60_000,
        always_on_fraction: 0.9, // quiet world for a sharp coverage check
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let (world, store) = crawl(config, 8 * 60_000, 1);

    // Ground truth: reachable, always-on, non-spammer nodes.
    let reachable: Vec<_> = world
        .nodes
        .iter()
        .filter(|n| n.reachable && n.always_on && n.kind != TruthKind::Spammer)
        .collect();
    assert!(!reachable.is_empty());
    let found = reachable
        .iter()
        .filter(|n| store.nodes.contains_key(&n.initial_id()))
        .count();
    let coverage = found as f64 / reachable.len() as f64;
    assert!(
        coverage > 0.8,
        "crawler should find >80% of reachable always-on nodes, got {:.2} ({found}/{})",
        coverage,
        reachable.len()
    );
}

#[test]
fn crawler_collects_hello_status_and_dao() {
    let config = WorldConfig {
        n_nodes: 50,
        duration_ms: 8 * 60_000,
        always_on_fraction: 0.9,
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let (world, store) = crawl(config, 8 * 60_000, 1);

    let hellos = store.hello_nodes().count();
    let statuses = store.status_nodes().count();
    let mainnet = store.mainnet_nodes().count();
    assert!(hellos > 10, "hellos {hellos}");
    assert!(statuses > 5, "statuses {statuses}");
    assert!(mainnet > 0, "mainnet {mainnet}");
    // Mainnet count must not exceed status count; statuses ≤ hellos.
    assert!(mainnet <= statuses && statuses <= hellos);

    // The crawler's Mainnet classification must agree with ground truth
    // for nodes it fully probed (DAO check completed).
    for obs in store.mainnet_nodes() {
        if obs.dao_fork == Some(true) {
            let truth = world.nodes.iter().find(|n| n.initial_id() == obs.id);
            if let Some(truth) = truth {
                assert_eq!(
                    truth.kind,
                    TruthKind::Mainnet,
                    "crawler misclassified {:?}",
                    truth.kind
                );
            }
        }
    }
    // And Classic nodes must never be classified Mainnet.
    for truth in world.nodes.iter().filter(|n| n.kind == TruthKind::Classic) {
        if let Some(obs) = store.nodes.get(&truth.initial_id()) {
            assert!(!obs.is_mainnet() || obs.dao_fork.is_none());
        }
    }
}

#[test]
fn spammers_generate_many_ids_and_sanitization_removes_them() {
    let config = WorldConfig {
        n_nodes: 30,
        duration_ms: 10 * 60_000,
        always_on_fraction: 0.9,
        spammer_ips: 2,
        // The paper's spammer minted a node every ~2s against a 30-minute
        // threshold (a ~900x margin); keep a comfortable margin here too.
        spammer_rotation_ms: 15_000,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let (world, store) = crawl(config, 10 * 60_000, 1);

    let spammer_ips: Vec<Ipv4Addr> = world
        .nodes
        .iter()
        .filter(|n| n.kind == TruthKind::Spammer)
        .map(|n| n.addr.ip)
        .collect();
    // The crawler should have seen several identities per spammer IP.
    let ids_at_spam_ips = store
        .nodes
        .values()
        .filter(|o| o.ips.iter().any(|ip| spammer_ips.contains(ip)))
        .count();
    assert!(
        ids_at_spam_ips >= 6,
        "expected many spammer identities, saw {ids_at_spam_ips}"
    );

    let params = nodefinder::SanitizeParams {
        short_lived_ms: 30_000,
        min_nodes_per_ip: 3,
        max_generation_interval_ms: 60_000,
    };
    let (clean, report) = nodefinder::sanitize(&store, params);
    for ip in &spammer_ips {
        assert!(
            report.abusive_ips.contains(ip),
            "spammer ip {ip} not flagged; flagged: {:?}",
            report.abusive_ips
        );
    }
    // Sanitized store keeps the legitimate population.
    let legit_found = world
        .nodes
        .iter()
        .filter(|n| n.kind != TruthKind::Spammer && n.reachable)
        .filter(|n| clean.nodes.contains_key(&n.initial_id()))
        .count();
    assert!(legit_found > 5, "legit nodes kept: {legit_found}");
}

#[test]
fn unreachable_nodes_only_seen_via_incoming() {
    let config = WorldConfig {
        n_nodes: 60,
        duration_ms: 10 * 60_000,
        always_on_fraction: 0.9,
        unreachable_fraction: 0.5,
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let (world, store) = crawl(config, 10 * 60_000, 1);
    let mut wrong = 0;
    for truth in world.nodes.iter().filter(|n| !n.reachable) {
        if let Some(obs) = store.nodes.get(&truth.initial_id()) {
            // An unreachable node must never have answered a TCP dial.
            if obs.ever_answered_dial {
                wrong += 1;
            }
        }
    }
    assert_eq!(wrong, 0, "{wrong} unreachable nodes answered dials");
}

#[test]
fn static_redials_accumulate_for_known_nodes() {
    let config = WorldConfig {
        n_nodes: 25,
        duration_ms: 10 * 60_000,
        always_on_fraction: 1.0,
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let (_, store) = crawl(config, 10 * 60_000, 1);
    // With a 1-minute redial interval over 10 minutes, responsive nodes
    // should have been dialed repeatedly.
    let redialed = store
        .nodes
        .values()
        .filter(|o| o.dials_attempted >= 3)
        .count();
    assert!(redialed > 5, "redialed {redialed}");
}
