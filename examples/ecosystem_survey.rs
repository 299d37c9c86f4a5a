//! Survey the DEVp2p ecosystem the way §6 does: crawl, sanitize, then
//! break the population down by service, network, and client.
//!
//! ```sh
//! cargo run --release --example ecosystem_survey
//! ```

use bench::{client_table, count_table, funnel, networks, services_table};
use ethereum_p2p::prelude::*;
use nodefinder::sanitize;
use std::net::Ipv4Addr;

fn main() {
    // A busier world than the quickstart: spammers included so the §5.4
    // pipeline has something to catch.
    let config = WorldConfig {
        seed: 99,
        n_nodes: 80,
        duration_ms: 6 * 60_000,
        spammer_ips: 1,
        spammer_rotation_ms: 20_000,
        udp_loss: 0.0,
        always_on_fraction: 0.8,
        ..WorldConfig::default()
    };
    let mut world = World::build(config);

    let key = SecretKey::from_bytes(&[55u8; 32]).expect("valid key");
    let crawler = NodeFinder::new(
        key,
        CrawlerConfig {
            static_redial_interval_ms: 90_000,
            ..CrawlerConfig::default()
        },
        world.bootstrap.clone(),
    );
    let addr = HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303);
    let host = world
        .sim
        .add_host(addr, HostMeta::default_cloud(), Box::new(crawler));
    world.sim.schedule_start(host, 0);
    world.sim.run_until(6 * 60_000);

    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .expect("crawler host")
        .into_any()
        .downcast::<NodeFinder>()
        .expect("is a NodeFinder");
    let raw = DataStore::from_log(&crawler.log);

    // §5.4 sanitization before any analysis.
    let params = SanitizeParams {
        short_lived_ms: 60_000,
        min_nodes_per_ip: 3,
        max_generation_interval_ms: 60_000,
    };
    let (store, report) = sanitize(&raw, params);
    println!(
        "sanitization: {} node IDs removed from {} abusive IP(s)\n",
        report.removed_nodes.len(),
        report.abusive_ips.len()
    );

    // §6.1 funnel.
    let f = funnel(&store);
    println!(
        "funnel: {} IDs → {} HELLO → {} STATUS → {} Mainnet ({:.0}% useless)\n",
        f.total_ids,
        f.hello_nodes,
        f.status_nodes,
        f.mainnet_nodes,
        100.0 * f.useless_fraction
    );

    // Table 3: services.
    println!(
        "{}",
        count_table("DEVp2p services", &services_table(&store), 10)
    );

    // Fig 9: networks.
    let nb = networks(&store);
    println!(
        "networks: {} distinct ids, {} distinct genesis hashes",
        nb.distinct_networks, nb.distinct_genesis
    );
    println!("{}", count_table("nodes per network", &nb.per_network, 8));

    // Table 4: clients among Mainnet peers.
    println!(
        "{}",
        count_table("Mainnet clients", &client_table(&store), 8)
    );
}
