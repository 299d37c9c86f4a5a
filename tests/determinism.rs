//! Determinism guarantees: identical seeds reproduce identical crawls,
//! byte for byte — the property that makes every experiment in
//! EXPERIMENTS.md re-runnable. The same bytes come out with a fault
//! schedule active, at any `ethcrypto` memo size, and whatever the inert
//! `shards` field says.

use adversary::{GarbageHello, ResetAfterN, SlowLoris, Tarpit};
use ethcrypto::secp256k1::{fit_memo, memo_stats};
use ethereum_p2p::prelude::*;
use netsim::{Fault, FaultWindow, LinkSelector, Region};
use std::net::Ipv4Addr;

fn crawl_fingerprint(seed: u64) -> (usize, usize, String) {
    let config = WorldConfig {
        seed,
        n_nodes: 25,
        duration_ms: 3 * 60_000,
        spammer_ips: 1,
        spammer_rotation_ms: 30_000,
        always_on_fraction: 0.6,
        udp_loss: 0.05, // loss exercised on purpose: it must be deterministic too
        ..WorldConfig::default()
    };
    let mut world = World::build(config);
    let key = SecretKey::from_bytes(&[9u8; 32]).unwrap();
    let crawler = NodeFinder::new(
        key,
        CrawlerConfig {
            static_redial_interval_ms: 45_000,
            ..CrawlerConfig::default()
        },
        world.bootstrap.clone(),
    );
    let host = world.sim.add_host(
        HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
        HostMeta::default_cloud(),
        Box::new(crawler),
    );
    world.sim.schedule_start(host, 0);
    world.sim.run_until(3 * 60_000);
    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let jsonl = crawler.log.to_jsonl();
    (crawler.log.conns.len(), crawler.log.events.len(), jsonl)
}

#[test]
fn same_seed_same_crawl_bytes() {
    let (conns_a, events_a, log_a) = crawl_fingerprint(12345);
    let (conns_b, events_b, log_b) = crawl_fingerprint(12345);
    assert_eq!(conns_a, conns_b);
    assert_eq!(events_a, events_b);
    assert_eq!(log_a, log_b, "logs must be byte-identical across runs");
    assert!(conns_a > 0 && events_a > 0, "crawl must have produced data");
}

#[test]
fn different_seed_different_crawl() {
    let (_, _, log_a) = crawl_fingerprint(1);
    let (_, _, log_b) = crawl_fingerprint(2);
    assert_ne!(log_a, log_b);
}

#[test]
fn two_fresh_worlds_produce_identical_datastores() {
    // Stronger than comparing raw logs: run the whole campaign twice through
    // two independently-constructed worlds, push each result through the
    // full analysis path (CrawlLog -> DataStore), and require the persisted
    // datastore to be byte-identical. This pins determinism of the
    // aggregation layer, not just of the simulator.
    let (_, _, log_a) = crawl_fingerprint(9001);
    let (_, _, log_b) = crawl_fingerprint(9001);
    let store_a = DataStore::from_log(&nodefinder::CrawlLog::from_jsonl(&log_a).unwrap());
    let store_b = DataStore::from_log(&nodefinder::CrawlLog::from_jsonl(&log_b).unwrap());
    assert!(store_a.total_ids() > 0, "campaign must observe nodes");
    assert_eq!(
        store_a.to_json(),
        store_b.to_json(),
        "datastore output must be byte-identical across fresh worlds"
    );
}

#[test]
fn log_persistence_roundtrip_through_disk_format() {
    let (_, _, jsonl) = crawl_fingerprint(777);
    let log = nodefinder::CrawlLog::from_jsonl(&jsonl).unwrap();
    assert_eq!(log.to_jsonl(), jsonl, "serialization must be stable");
    // and the datastore built from the reloaded log matches
    let store = DataStore::from_log(&log);
    assert!(store.total_ids() > 0);
}

const SIM_MS: u64 = 5 * 60_000;

fn meta(reachable: bool) -> HostMeta {
    HostMeta {
        country: "US",
        asn: "Test",
        region: Region::NorthAmerica,
        reachable,
    }
}

/// Everything a crawl externalizes, captured as bytes.
struct Artifacts {
    store_json: String,
    trace_jsonl: String,
    prometheus: String,
    funnel: String,
    events: u64,
}

/// A 24-host world with churn (half the population cycles), UDP loss,
/// latency jitter and one identity-rotating spammer.
fn world_config(shards: usize) -> WorldConfig {
    WorldConfig {
        seed: 4242,
        n_nodes: 24,
        duration_ms: SIM_MS,
        always_on_fraction: 0.5,
        spammer_ips: 1,
        udp_loss: 0.05,
        shards,
        ..WorldConfig::default()
    }
}

/// Add the NodeFinder, bootstrapped from `bootstrap`, and start it.
fn add_crawler(world: &mut World, bootstrap: Vec<NodeRecord>) -> netsim::HostId {
    let crawler_key = SecretKey::from_bytes(&[0xCB; 32]).unwrap();
    let crawler = NodeFinder::new(
        crawler_key,
        CrawlerConfig {
            static_redial_interval_ms: 60_000,
            stale_after_ms: SIM_MS,
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
    host
}

/// Crawl [`world_config`]'s world with four adversaries breaking the
/// probe pipeline at different stages, and (with `with_faults`) a UDP
/// loss burst and a latency spike over live crawl traffic.
fn crawl(shards: usize, with_faults: bool) -> Artifacts {
    let recorder = obs::Recorder::new();
    recorder.install();
    let mut world = World::build(world_config(shards));

    let mut bootstrap = world.bootstrap.clone();
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

    if with_faults {
        // Both windows overlap live crawl traffic; their draws come from
        // the per-host RNG streams.
        world.sim.add_fault(FaultWindow {
            link: LinkSelector::Any,
            from_ms: 60_000,
            until_ms: 120_000,
            fault: Fault::UdpLoss(0.5),
        });
        world.sim.add_fault(FaultWindow {
            link: LinkSelector::Any,
            from_ms: 150_000,
            until_ms: 210_000,
            fault: Fault::LatencySpike(80),
        });
    }

    let host = add_crawler(&mut world, bootstrap);
    world.sim.run_until(SIM_MS);

    let events = world.sim.events_processed();
    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let store = DataStore::from_log(&crawler.log);
    obs::uninstall();
    Artifacts {
        store_json: store.to_json(),
        trace_jsonl: recorder.export_jsonl(),
        prometheus: recorder.prometheus(),
        funnel: format!("{:?}", store.dial_funnel()),
        events,
    }
}

/// The engine image of [`world_config`]'s world, crawled without
/// adversaries (their hosts do not implement `save_state`), half way
/// through the crawl.
fn image_mid_crawl(shards: usize) -> Vec<u8> {
    let mut world = World::build(world_config(shards));
    let bootstrap = world.bootstrap.clone();
    add_crawler(&mut world, bootstrap);
    world.sim.run_until(SIM_MS / 2);
    world.sim.snapshot().expect("engine snapshot")
}

fn assert_identical(base: &Artifacts, other: &Artifacts, shards: usize) {
    assert_eq!(
        base.store_json, other.store_json,
        "DataStore diverged (shards = {shards})"
    );
    assert_eq!(
        base.trace_jsonl, other.trace_jsonl,
        "obs JSONL trace diverged (shards = {shards})"
    );
    assert_eq!(
        base.prometheus, other.prometheus,
        "Prometheus snapshot diverged (shards = {shards})"
    );
    assert_eq!(
        base.funnel, other.funnel,
        "dial funnel diverged (shards = {shards})"
    );
    assert_eq!(
        base.events, other.events,
        "event totals diverged (shards = {shards})"
    );
}

/// `WorldConfig::shards` is read by nothing: the engine runs one event
/// queue whatever it says, so a world built with 8 exports the same
/// bytes, and writes the same `PSNP` image, as the default.
#[test]
fn the_shards_field_is_inert() {
    assert_identical(&crawl(1, false), &crawl(8, false), 8);
    assert!(
        image_mid_crawl(1) == image_mid_crawl(8),
        "PSNP image differs with shards = 8"
    );
}

/// A fault schedule perturbs the crawl, and the perturbed crawl is the
/// same bytes on every run of the same seed.
#[test]
fn exports_are_byte_identical_with_faults_active() {
    let base = crawl(1, true);
    let calm = crawl(1, false);
    assert!(base.events > 1_000, "world too quiet to prove anything");
    assert_ne!(
        base.trace_jsonl, calm.trace_jsonl,
        "fault schedule must actually perturb the trace"
    );
    assert_identical(&base, &crawl(1, true), 1);
}

/// The `ethcrypto` memo's size is an execution-layout choice too: the same
/// world exports the same bytes from tables at their floor, where every
/// one of them evicts, and from tables sized for a million hosts (and warm
/// from the first run), where none does. `fit_memo` only grows, so in that
/// order; a test thread starts with its own memo at the floor.
#[test]
fn exports_are_byte_identical_at_any_memo_size() {
    let small = crawl(1, false);
    let before = memo_stats();
    for table in [before.pubkey, before.ecdh, before.sig] {
        assert_eq!(table.cap, 4096, "{before:?}");
        assert!(table.evictions > 0, "world too quiet to evict: {before:?}");
    }
    fit_memo(1 << 20);
    let large = crawl(1, false);
    let after = memo_stats();
    for (table, was) in [
        (after.pubkey, before.pubkey),
        (after.ecdh, before.ecdh),
        (after.sig, before.sig),
    ] {
        assert!(table.cap >= 1 << 18, "{after:?}");
        assert_eq!(table.evictions, was.evictions, "{after:?}");
        assert!(table.hits > was.hits, "{after:?}");
    }
    assert_identical(&small, &large, 1);
}
