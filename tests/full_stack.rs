//! Cross-crate integration tests: the whole stack — crypto, RLP, discv4,
//! RLPx, DEVp2p, eth — driven through the simulator via the umbrella
//! crate's public API.

use adversary::{GarbageHello, ResetAfterN, SlowLoris, Tarpit};
use ethereum_p2p::prelude::*;
use ethpop::ServiceKind;
use netsim::Region;
use std::net::Ipv4Addr;

fn meta(reachable: bool) -> HostMeta {
    HostMeta {
        country: "US",
        asn: "Test",
        region: Region::NorthAmerica,
        reachable,
    }
}

/// Two behavioral nodes on different chains must refuse each other after
/// STATUS: the Geth side with SubprotocolError, the Parity side with
/// UselessPeer (§3 observation 4).
#[test]
fn chain_mismatch_disconnect_reasons_are_client_specific() {
    let mut sim = NetSim::new(SimConfig {
        udp_loss: 0.0,
        jitter_ms: 0,
        ..SimConfig::default()
    });

    let geth_key = SecretKey::from_bytes(&[1u8; 32]).unwrap();
    let parity_key = SecretKey::from_bytes(&[2u8; 32]).unwrap();
    let geth_record = NodeRecord::new(
        NodeId::from_secret_key(&geth_key),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
    );

    // Geth on Mainnet; Parity on Ropsten (network 3).
    let geth = EthNode::new(
        NodeProfile::geth(
            geth_key,
            "Geth/test".into(),
            Chain::new(ChainConfig::mainnet(), 100),
        ),
        vec![],
    );
    let parity = EthNode::new(
        NodeProfile::parity(
            parity_key,
            "Parity/test".into(),
            Chain::new(ChainConfig::alt(3, 33), 100),
        ),
        vec![geth_record], // parity bootstraps off geth and will dial it
    );

    let geth_host = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
        meta(true),
        Box::new(geth),
    );
    let parity_host = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 2), 30303),
        meta(true),
        Box::new(parity),
    );
    sim.schedule_start(geth_host, 0);
    sim.schedule_start(parity_host, 0);
    sim.run_until(120_000);

    let geth = sim
        .remove_host_behaviour(geth_host)
        .unwrap()
        .into_any()
        .downcast::<EthNode>()
        .unwrap();
    let parity = sim
        .remove_host_behaviour(parity_host)
        .unwrap()
        .into_any()
        .downcast::<EthNode>()
        .unwrap();

    // At least one side must have detected the mismatch and hung up with
    // its client-specific reason.
    let geth_sent_subproto = geth
        .stats()
        .disconnects_sent
        .get("Subprotocol error")
        .copied()
        .unwrap_or(0);
    let parity_sent_useless = parity
        .stats()
        .disconnects_sent
        .get("Useless peer")
        .copied()
        .unwrap_or(0);
    assert!(
        geth_sent_subproto + parity_sent_useless > 0,
        "expected a chain-mismatch disconnect; geth sent {:?}, parity sent {:?}",
        geth.stats().disconnects_sent,
        parity.stats().disconnects_sent
    );
    // And Parity never emits codes above 0x0b.
    assert_eq!(
        parity
            .stats()
            .disconnects_sent
            .get("Subprotocol error")
            .copied()
            .unwrap_or(0),
        0,
        "parity must never send SubprotocolError"
    );
}

/// A light node HELLOs fine but never produces a STATUS, so the crawler
/// can't classify its network (§5.3's missing-node analysis).
#[test]
fn light_nodes_hello_but_never_status() {
    let mut sim = NetSim::new(SimConfig {
        udp_loss: 0.0,
        jitter_ms: 0,
        ..SimConfig::default()
    });

    let light_key = SecretKey::from_bytes(&[3u8; 32]).unwrap();
    let light_record = NodeRecord::new(
        NodeId::from_secret_key(&light_key),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
    );
    let light = EthNode::new(
        NodeProfile::light(
            light_key,
            "Parity/v1.10.3-light".into(),
            Capability::new("les", 2),
        ),
        vec![],
    );
    let crawler_key = SecretKey::from_bytes(&[4u8; 32]).unwrap();
    let crawler = NodeFinder::new(crawler_key, CrawlerConfig::default(), vec![light_record]);

    let light_host = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
        meta(true),
        Box::new(light),
    );
    let crawler_host = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 2), 30303),
        meta(true),
        Box::new(crawler),
    );
    sim.schedule_start(light_host, 0);
    sim.schedule_start(crawler_host, 0);
    sim.run_until(60_000);

    let crawler = sim
        .remove_host_behaviour(crawler_host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let store = DataStore::from_log(&crawler.log);
    let obs = store
        .nodes
        .get(&light_record.id)
        .expect("crawler must have probed the light node");
    assert!(obs.hello.is_some(), "HELLO should be collected");
    let hello = obs.hello.as_ref().unwrap();
    assert!(hello.capabilities.iter().any(|c| c.starts_with("les")));
    assert!(obs.status.is_none(), "light nodes never send eth STATUS");
    assert!(!obs.is_mainnet());
}

/// Classic vs Mainnet: same genesis hash, distinguished only by the DAO
/// header check — the crawler must classify both correctly.
#[test]
fn dao_check_separates_classic_from_mainnet() {
    let mut sim = NetSim::new(SimConfig {
        udp_loss: 0.0,
        jitter_ms: 0,
        ..SimConfig::default()
    });

    let main_key = SecretKey::from_bytes(&[5u8; 32]).unwrap();
    let classic_key = SecretKey::from_bytes(&[6u8; 32]).unwrap();
    let main_record = NodeRecord::new(
        NodeId::from_secret_key(&main_key),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
    );
    let classic_record = NodeRecord::new(
        NodeId::from_secret_key(&classic_key),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 30303),
    );

    let mainnet_node = EthNode::new(
        NodeProfile::geth(
            main_key,
            "Geth/mainnet".into(),
            Chain::new(ChainConfig::mainnet(), ethwire::SNAPSHOT_HEAD),
        ),
        vec![],
    );
    let classic_node = EthNode::new(
        NodeProfile::geth(
            classic_key,
            "Geth/classic".into(),
            Chain::new(ChainConfig::classic(), ethwire::SNAPSHOT_HEAD),
        ),
        vec![],
    );
    let crawler_key = SecretKey::from_bytes(&[7u8; 32]).unwrap();
    let crawler = NodeFinder::new(
        crawler_key,
        CrawlerConfig::default(),
        vec![main_record, classic_record],
    );

    let h1 = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
        meta(true),
        Box::new(mainnet_node),
    );
    let h2 = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 2), 30303),
        meta(true),
        Box::new(classic_node),
    );
    let hc = sim.add_host(
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 3), 30303),
        meta(true),
        Box::new(crawler),
    );
    for h in [h1, h2, hc] {
        sim.schedule_start(h, 0);
    }
    sim.run_until(120_000);

    let crawler = sim
        .remove_host_behaviour(hc)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let store = DataStore::from_log(&crawler.log);

    let main_obs = store.nodes.get(&main_record.id).expect("mainnet probed");
    let classic_obs = store.nodes.get(&classic_record.id).expect("classic probed");
    // Both advertise the same genesis…
    assert_eq!(
        main_obs.status.unwrap().genesis_hash,
        classic_obs.status.unwrap().genesis_hash
    );
    // …but the DAO check separates them.
    assert_eq!(main_obs.dao_fork, Some(true));
    assert_eq!(classic_obs.dao_fork, Some(false));
    assert!(main_obs.is_mainnet());
    assert!(!classic_obs.is_mainnet());
}

/// Crawl a generated world, optionally salting it with ~10% adversarial
/// hosts, and return (ground truth, datastore).
fn crawl_population(with_adversaries: bool) -> (World, DataStore) {
    let config = WorldConfig {
        seed: 4242,
        n_nodes: 36,
        duration_ms: 10 * 60_000,
        always_on_fraction: 1.0,
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let mut world = World::build(config);
    let mut bootstrap = world.bootstrap.clone();
    if with_adversaries {
        // Four Byzantine hosts — ~10% of the population — each breaking
        // the probe pipeline at a different stage.
        type AdvFactory = Box<dyn Fn(SecretKey, Vec<Endpoint>) -> Box<dyn netsim::Host>>;
        let boot_eps: Vec<Endpoint> = world.bootstrap.iter().map(|r| r.endpoint).collect();
        let factories: Vec<AdvFactory> = vec![
            Box::new(|k, b| Box::new(SlowLoris::new(k, b))),
            Box::new(|k, b| Box::new(GarbageHello::new(k, b))),
            Box::new(|k, b| Box::new(Tarpit::new(k, b))),
            Box::new(|k, b| Box::new(ResetAfterN::new(k, b))),
        ];
        for (i, factory) in factories.into_iter().enumerate() {
            let key = SecretKey::from_bytes(&[0xA0 + i as u8; 32]).unwrap();
            let ep = Endpoint::new(Ipv4Addr::new(203, 0, 113, i as u8 + 1), 30303);
            bootstrap.push(NodeRecord::new(NodeId::from_secret_key(&key), ep));
            let host = world.sim.add_host(
                HostAddr::new(ep.ip, ep.tcp_port),
                meta(true),
                factory(key, boot_eps.clone()),
            );
            world.sim.schedule_start(host, 0);
        }
    }
    let crawler_key = SecretKey::from_bytes(&[0xCB; 32]).unwrap();
    let crawler = NodeFinder::new(
        crawler_key,
        CrawlerConfig {
            static_redial_interval_ms: 60_000,
            stale_after_ms: 10 * 60_000,
            probe_timeout_ms: 30_000,
            penalty_threshold: 3,
            penalty_box_ms: 2 * 60_000,
            ..CrawlerConfig::default()
        },
        bootstrap,
    );
    let host = world.sim.add_host(
        HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
        HostMeta::default_cloud(),
        Box::new(crawler),
    );
    world.sim.schedule_start(host, 0);
    world.sim.run_until(10 * 60_000);
    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let store = DataStore::from_log(&crawler.log);
    (world, store)
}

/// Count ground-truth reachable well-behaved hosts whose HELLO the
/// crawler collected.
fn helloed_honest(world: &World, store: &DataStore) -> (usize, usize) {
    let reachable: Vec<_> = world.nodes.iter().filter(|n| n.reachable).collect();
    let helloed = reachable
        .iter()
        .filter(|n| {
            store
                .nodes
                .get(&n.initial_id())
                .map(|o| o.hello.is_some())
                .unwrap_or(false)
        })
        .count();
    (helloed, reachable.len())
}

/// A 10% adversarial population must shift the dialed-vs-responded
/// funnel in the paper's direction — more dialed-but-unresponsive IDs —
/// without costing a single well-behaved host (the crawler's probe
/// pipeline degrades per-peer, never globally).
#[test]
fn mixed_population_shifts_funnel_without_losing_honest_coverage() {
    let (base_world, base_store) = crawl_population(false);
    let (mixed_world, mixed_store) = crawl_population(true);

    // 100% of reachable well-behaved hosts complete a HELLO — with and
    // without the Byzantine contingent.
    let (base_found, base_total) = helloed_honest(&base_world, &base_store);
    let (mixed_found, mixed_total) = helloed_honest(&mixed_world, &mixed_store);
    assert_eq!(
        base_found, base_total,
        "baseline crawl must HELLO every reachable well-behaved host"
    );
    assert_eq!(
        mixed_found, mixed_total,
        "adversaries must not cost the crawler a single well-behaved host"
    );
    assert_eq!(base_total, mixed_total, "same generated ground truth");

    // The funnel widens at the bottom: every adversary (and the tarpit's
    // fake records) lands in dialed-but-unresponsive, exactly the gap the
    // paper measures between discovered and productive peers (Figs. 6–7).
    let base_funnel = base_store.dial_funnel();
    let mixed_funnel = mixed_store.dial_funnel();
    assert!(
        mixed_funnel.unresponsive_dialed > base_funnel.unresponsive_dialed,
        "expected more dialed-but-unresponsive IDs, base {base_funnel:?} mixed {mixed_funnel:?}"
    );
    assert!(
        mixed_funnel.discovered > base_funnel.discovered,
        "tarpit fakes should inflate the discovered set"
    );
    // And the failure classifiers saw the adversaries' signatures.
    let totals = mixed_store.failure_totals();
    assert!(
        totals.get("hello_timeout").copied().unwrap_or(0) > 0,
        "slow-loris signature missing: {totals:?}"
    );
    assert!(
        totals.get("protocol_error").copied().unwrap_or(0) > 0,
        "garbage-HELLO signature missing: {totals:?}"
    );
}

/// Profile construction sanity for non-eth services end to end: the world
/// builder uses these, so their invariants matter.
#[test]
fn profile_service_kinds_are_coherent() {
    let key = SecretKey::from_bytes(&[8u8; 32]).unwrap();
    let swarm = NodeProfile::other_service(key, "swarm/v0.3".into(), Capability::new("bzz", 1));
    assert!(matches!(swarm.service, ServiceKind::OtherService));
    assert_eq!(swarm.capabilities[0].name, "bzz");
    let light = NodeProfile::light(key, "les-client".into(), Capability::new("les", 2));
    assert!(matches!(light.service, ServiceKind::Light));
}
