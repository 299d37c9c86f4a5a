//! Node tests: the `ETHN` restore rules and the heap estimate across a
//! stop.

use super::snapshot::{NODE_SNAP_MAGIC, NODE_SNAP_VERSION};
use super::*;
use ethwire::{Chain, ChainConfig};
use netsim::Snap;

fn node() -> EthNode {
    let key = SecretKey::from_bytes(&[0x11u8; 32]).unwrap();
    let chain = Chain::new(ChainConfig::mainnet(), 1000);
    EthNode::new(NodeProfile::geth(key, "Geth/test".into(), chain), vec![])
}

#[test]
fn fresh_node_has_no_peers_and_identity() {
    let n = node();
    assert!(n.running.is_none());
    assert_eq!(n.table_size(), 0);
    assert_eq!(n.stats(), &NodeStats::default());
    assert_eq!(n.node_id(), n.profile().node_id());
}

/// An `ETHN` section for a node without a discovery engine, written
/// field by field, carrying the running state given.
fn stopped_image(
    conns: &[PeerConn],
    eth_ready: &[ConnId],
    candidates: &[NodeRecord],
    dialing: usize,
    armed: [bool; 3],
) -> Vec<u8> {
    let n = node();
    let mut w = SnapWriter::new();
    w.header(NODE_SNAP_MAGIC, NODE_SNAP_VERSION);
    n.kept.profile.key.to_bytes().snap(&mut w);
    n.kept.profile.client_id.snap(&mut w);
    w.bool(false);
    w.usize(conns.len());
    for pc in conns {
        pc.snap(&mut w);
    }
    eth_ready
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .snap(&mut w);
    candidates
        .iter()
        .copied()
        .collect::<VecDeque<_>>()
        .snap(&mut w);
    BTreeSet::<u64>::new().snap(&mut w);
    dialing.snap(&mut w);
    armed.snap(&mut w);
    0u32.snap(&mut w);
    0u64.snap(&mut w);
    false.snap(&mut w);
    NodeStats::default().snap(&mut w);
    w.finish()
}

/// A stopped node writes the empty defaults of a running one, and
/// restore refuses an image whose stopped node still holds a
/// connection, an eth-ready id, a candidate, a dial or an armed timer.
#[test]
fn restore_refuses_running_state_on_a_stopped_node() {
    let restore = |bytes: &[u8]| node().load_state(bytes);
    let clean = stopped_image(&[], &[], &[], 0, [false; 3]);
    let mut w = SnapWriter::new();
    node().save_state(&mut w).unwrap();
    assert_eq!(w.finish(), clean, "a fresh node writes the empty defaults");
    assert_eq!(restore(&clean), Ok(()));

    let peer = SecretKey::from_bytes(&[0x33u8; 32]).unwrap();
    let peer_id = NodeId::from_secret_key(&peer);
    let conn = PeerConn::accepted(7, node().kept.profile.hello(30303), 0);
    let candidate = NodeRecord::new(
        peer_id,
        Endpoint::new(std::net::Ipv4Addr::new(10, 0, 0, 2), 30303),
    );
    let why = Err(SnapError::Corrupt("a stopped node holds running state"));
    for (case, bytes) in [
        (
            "a connection",
            stopped_image(&[conn], &[], &[], 0, [false; 3]),
        ),
        (
            "an eth-ready id",
            stopped_image(&[], &[7], &[], 0, [false; 3]),
        ),
        (
            "a candidate",
            stopped_image(&[], &[], &[candidate], 0, [false; 3]),
        ),
        ("a dial", stopped_image(&[], &[], &[], 1, [false; 3])),
        (
            "discovery armed",
            stopped_image(&[], &[], &[], 0, [true, false, false]),
        ),
        (
            "dialing armed",
            stopped_image(&[], &[], &[], 0, [false, true, false]),
        ),
        (
            "polling armed",
            stopped_image(&[], &[], &[], 0, [false, false, true]),
        ),
    ] {
        assert_eq!(restore(&bytes), why, "{case}");
    }
}

/// After `on_stop` a node holds what outlives a run and nothing else:
/// its heap estimate is that of a fresh node with the same `known`
/// set and counters, while a running node is charged its running state.
#[test]
fn a_stopped_node_is_charged_no_running_state() {
    use netsim::{HostMeta, NetSim, Region, SimConfig};
    use std::net::Ipv4Addr;
    let chain = Chain::new(ChainConfig::mainnet(), 100);
    let profiles: Vec<NodeProfile> = (1..=4u8)
        .map(|i| {
            let key = SecretKey::from_bytes(&[i; 32]).unwrap();
            NodeProfile::geth(key, "Geth/test".into(), chain.clone())
        })
        .collect();
    let addr = |i: usize| HostAddr::new(Ipv4Addr::new(10, 0, 0, i as u8 + 1), 30303);
    let boot: Rc<[NodeRecord]> = vec![NodeRecord::new(
        profiles[0].node_id(),
        Endpoint::new(addr(0).ip, 30303),
    )]
    .into();
    let mut sim = NetSim::new(SimConfig {
        seed: 5,
        ..SimConfig::default()
    });
    let meta = HostMeta {
        country: "US",
        asn: "Test",
        region: Region::NorthAmerica,
        reachable: true,
    };
    let hosts: Vec<_> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let node = EthNode::new(p.clone(), boot.clone());
            let host = sim.add_host(addr(i), meta.clone(), Box::new(node));
            sim.schedule_start(host, 0);
            host
        })
        .collect();
    sim.schedule_stop(hosts[1], 60_000);
    sim.run_until(61_000);
    let mut take = |h| {
        let b = sim.remove_host_behaviour(h).unwrap();
        *b.into_any().downcast::<EthNode>().unwrap()
    };
    // A node, its estimate, and the estimate of a fresh node given
    // what the node keeps across runs; both are read while the same
    // `Rc`s are alive.
    let mut measure = |h| {
        let mut n = take(h);
        let mut shell = EthNode::new(n.kept.profile.clone(), boot.clone());
        let bytes = n.approx_heap_bytes();
        assert!(n.known_count() > 0, "the node ran");
        shell.kept.known = std::mem::take(&mut n.kept.known);
        shell.kept.stats = n.kept.stats.take();
        (n, bytes, shell.approx_heap_bytes())
    };
    let (stopped, bytes, idle) = measure(hosts[1]);
    assert!(stopped.running.is_none());
    assert_eq!(bytes, idle);

    let (mut running, bytes, idle) = measure(hosts[2]);
    assert!(running.table_size() > 0, "the running node discovered");
    assert!(bytes >= idle + size_of::<Running>() + running.table_size() * size_of::<NodeRecord>());

    // Its discovery engine is charged its bonds, not only its table:
    // swapping in an empty engine frees at least the table entries
    // plus an id and a stamp per bond.
    let table = running.table_size() * size_of::<NodeRecord>();
    let before = running.approx_heap_bytes();
    let kept = &running.kept;
    let endpoint = Endpoint::new(addr(2).ip, addr(2).port);
    let empty = Discv4::new(kept.profile.key, endpoint, kept.profile.disc_config());
    let run = running.running.as_deref_mut().unwrap();
    let bonds = run.disc.bond_count();
    assert!(bonds > 0, "the running node bonded");
    run.disc = empty;
    let freed = before - running.approx_heap_bytes();
    assert!(
        freed >= table + bonds * (size_of::<NodeId>() + size_of::<u64>()),
        "{freed} B freed for {bonds} bonds and a {table} B table"
    );
}
