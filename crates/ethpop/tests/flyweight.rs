//! Flyweight-host equivalence: sharing immutable state (`Rc` bootstrap
//! lists and capability lists) across a population must be invisible to
//! behavior — the same world run against deep, unshared copies emits the
//! identical trace — and must actually shrink the per-host footprint the
//! `approx_heap_bytes` proxy measures.

use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethpop::{EthNode, NodeProfile, World, WorldConfig};
use ethwire::{Chain, ChainConfig};
use netsim::{HostAddr, HostMeta, NetSim, Region, SimConfig};
use std::net::Ipv4Addr;
use std::rc::Rc;

const SIM_MS: u64 = 2 * 60_000;

fn meta() -> HostMeta {
    HostMeta {
        country: "US",
        asn: "Test",
        region: Region::NorthAmerica,
        reachable: true,
    }
}

fn profiles() -> Vec<NodeProfile> {
    let chain = Chain::new(ChainConfig::mainnet(), 100);
    (0..6u8)
        .map(|i| {
            let key = SecretKey::from_bytes(&[i + 1; 32]).unwrap();
            if i % 2 == 0 {
                NodeProfile::geth(key, "Geth/v1.8.11".into(), chain.clone())
            } else {
                NodeProfile::parity(key, "Parity/v1.10.6".into(), chain.clone())
            }
        })
        .collect()
}

/// Per-node tallies from a mesh run: (known peers, dials, messages sent).
type NodeTally = (usize, u64, u64);

/// Build and run a small mesh where every node bootstraps off node 0.
/// `shared` hands all nodes one `Rc` bootstrap list and the profiles
/// as-is; the control re-allocates everything per node via
/// `NodeProfile::unshared()` and per-node `Vec`s.
fn run_mesh(shared: bool) -> (u64, (u64, u64), Vec<NodeTally>) {
    let mut sim = NetSim::new(SimConfig {
        seed: 99,
        udp_loss: 0.1,
        jitter_ms: 8,
        ..SimConfig::default()
    });
    let profiles = profiles();
    let boot_record = NodeRecord::new(
        NodeId::from_secret_key(&profiles[0].key),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
    );
    let boot_shared: Rc<[NodeRecord]> = vec![boot_record].into();
    let mut hosts = Vec::new();
    for (i, profile) in profiles.into_iter().enumerate() {
        let addr = HostAddr::new(Ipv4Addr::new(10, 0, 0, i as u8 + 1), 30303);
        let node = if shared {
            EthNode::new(profile, boot_shared.clone())
        } else {
            EthNode::new(profile.unshared(), vec![boot_record])
        };
        let host = sim.add_host(addr, meta(), Box::new(node));
        sim.schedule_start(host, 0);
        hosts.push(host);
    }
    sim.run_until(SIM_MS);
    let events = sim.events_processed();
    let udp = sim.udp_counters();
    let per_node: Vec<NodeTally> = hosts
        .into_iter()
        .map(|h| {
            let node = sim
                .remove_host_behaviour(h)
                .unwrap()
                .into_any()
                .downcast::<EthNode>()
                .unwrap();
            (
                node.known_count(),
                node.stats().dials,
                node.stats().sent.values().sum::<u64>(),
            )
        })
        .collect();
    (events, udp, per_node)
}

/// Shared flyweight state must emit exactly the actions the unshared
/// deep-copy world emits: same event totals, same UDP traffic, same
/// per-node discovery/dial/send tallies.
#[test]
fn shared_and_unshared_state_behave_identically() {
    let shared = run_mesh(true);
    let unshared = run_mesh(false);
    assert!(shared.0 > 500, "mesh too quiet: {} events", shared.0);
    assert_eq!(shared, unshared);
    assert!(
        shared.2.iter().all(|(known, _, _)| *known > 0),
        "every node should have discovered peers: {:?}",
        shared.2
    );
}

/// Sharing must show up in the heap proxy: a node holding an `Rc` clone of
/// a 50-record bootstrap list is charged a fraction of what an unshared
/// copy costs.
#[test]
fn sharing_shrinks_the_heap_proxy() {
    let chain = Chain::new(ChainConfig::mainnet(), 100);
    let records: Vec<NodeRecord> = (0..50u8)
        .map(|i| {
            let key = SecretKey::from_bytes(&[i + 1; 32]).unwrap();
            NodeRecord::new(
                NodeId::from_secret_key(&key),
                Endpoint::new(Ipv4Addr::new(10, 0, 0, i + 1), 30303),
            )
        })
        .collect();
    let profile = |i: u8| {
        NodeProfile::geth(
            SecretKey::from_bytes(&[i; 32]).unwrap(),
            "Geth/v1.8.11".into(),
            chain.clone(),
        )
    };
    let boot: Rc<[NodeRecord]> = records.clone().into();
    let fleet: Vec<EthNode> = (1..=8)
        .map(|i| EthNode::new(profile(i), boot.clone()))
        .collect();
    let lone = EthNode::new(profile(9), records);
    let shared_bytes = fleet[0].approx_heap_bytes();
    let lone_bytes = lone.approx_heap_bytes();
    assert!(
        shared_bytes * 2 < lone_bytes,
        "sharing should at least halve the proxy: shared {shared_bytes}, unshared {lone_bytes}"
    );
}

/// The 5k-tier budget regression: mean per-host footprint at build time
/// must stay far below the ~210 KB/host the pre-flyweight engine spent.
/// The 2 KB budget pins both the flyweight sharing (one bootstrap
/// allocation for the whole world) and the compact `known` fingerprint
/// set.
#[test]
fn five_k_world_mean_footprint_stays_under_budget() {
    let config = WorldConfig {
        seed: 7,
        n_nodes: 5_000,
        duration_ms: 60_000,
        ..WorldConfig::default()
    };
    let mut world = World::build(config);
    let hosts: Vec<_> = world.nodes.iter().map(|n| n.host).collect();
    let mut total = 0usize;
    let mut counted = 0usize;
    for h in hosts {
        if let Some(b) = world.sim.remove_host_behaviour(h) {
            if let Ok(node) = b.into_any().downcast::<EthNode>() {
                total += node.approx_heap_bytes();
                counted += 1;
            }
        }
    }
    assert!(
        counted >= 5_000,
        "expected the full population, got {counted}"
    );
    let mean = total / counted;
    assert!(
        mean < 2_048,
        "mean per-host proxy {mean} B exceeds the 2 KiB flyweight budget"
    );
}
