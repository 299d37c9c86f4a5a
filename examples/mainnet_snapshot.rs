//! A §7-style snapshot: measure the Mainnet slice's size, reachability
//! split, geography, and freshness over one window.
//!
//! ```sh
//! cargo run --release --example mainnet_snapshot
//! ```

use bench::{
    as_distribution, count_table, country_distribution, freshness, latency_cdf, size_comparison,
    top_as_share, GeoDb,
};
use ethereum_p2p::prelude::*;
use std::net::Ipv4Addr;

fn main() {
    let config = WorldConfig {
        seed: 2018,
        n_nodes: 100,
        duration_ms: 8 * 60_000,
        spammer_ips: 0,
        udp_loss: 0.0,
        unreachable_fraction: 0.6,
        always_on_fraction: 0.7,
        ..WorldConfig::default()
    };
    let mut world = World::build(config);

    // Two instances, like a scaled-down version of the paper's thirty.
    let mut hosts = Vec::new();
    for i in 0..2u8 {
        let key = SecretKey::from_bytes(&[60 + i; 32]).expect("valid key");
        let crawler = NodeFinder::new(
            key,
            CrawlerConfig {
                static_redial_interval_ms: 90_000,
                ..CrawlerConfig::default()
            },
            world.bootstrap.clone(),
        );
        let addr = HostAddr::new(Ipv4Addr::new(192, 17, 100, 1 + i), 30303);
        let host = world
            .sim
            .add_host(addr, HostMeta::default_cloud(), Box::new(crawler));
        world.sim.schedule_start(host, 0);
        hosts.push(host);
    }
    world.sim.run_until(8 * 60_000);

    let mut merged = nodefinder::CrawlLog::default();
    for host in hosts {
        let crawler = world
            .sim
            .remove_host_behaviour(host)
            .expect("crawler host")
            .into_any()
            .downcast::<NodeFinder>()
            .expect("is a NodeFinder");
        merged.merge(crawler.log);
    }
    let store = DataStore::from_log(&merged);

    // Size and reachability (Table 6's core comparison).
    let sc = size_comparison(&store);
    println!("snapshot size:");
    println!("  Mainnet nodes (in+out) : {}", sc.nodefinder);
    println!("  …answered our dials    : {}", sc.nodefinder_reachable);
    println!("  …incoming-only (NATed) : {}", sc.nodefinder_unreachable);
    println!(
        "  advantage vs reachable-only crawling: {:.2}×\n",
        sc.advantage_factor
    );

    // Geography / AS (Figs 12–13) via the world-derived Geo database.
    let db = GeoDb::from_world(&world);
    println!(
        "{}",
        count_table("by country", &country_distribution(&store, &db), 8)
    );
    let ases = as_distribution(&store, &db);
    println!("{}", count_table("by AS", &ases, 8));
    println!("top-8 AS share: {:.1}%\n", top_as_share(&ases, 8));

    // Freshness (Fig 14) and latency (Fig 13).
    let f = freshness(&store, 6_000);
    println!(
        "freshness: head≈{}, {:.0}% stale, {} stuck at Byzantium+1",
        f.network_head,
        100.0 * f.stale_fraction,
        f.stuck_at_byzantium
    );
    let lat = latency_cdf(&store);
    if !lat.is_empty() {
        println!(
            "latency: p50={}ms p90={}ms over {} samples",
            lat.quantile(0.5),
            lat.quantile(0.9),
            lat.len()
        );
    }
}
