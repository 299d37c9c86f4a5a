//! Shard-count invariance, end to end: the same seeded world crawled at
//! shard counts {1, 2, 4, 7} must export byte-identical DataStores, obs
//! traces, whole Prometheus snapshots, and dial funnels — with churn, loss,
//! jitter, Byzantine hosts, and (in the second scenario) an active fault
//! schedule all in play. This is the proof obligation for the sharded
//! scheduler: sharding is an execution-layout choice, never a semantic
//! one.

use adversary::{GarbageHello, ResetAfterN, SlowLoris, Tarpit};
use ethcrypto::secp256k1::{fit_memo, memo_stats};
use ethereum_p2p::prelude::*;
use netsim::{Fault, FaultWindow, LinkSelector, Region};
use std::net::Ipv4Addr;

const SIM_MS: u64 = 5 * 60_000;
const SHARD_COUNTS: [usize; 3] = [2, 4, 7];

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
    shard_events: Vec<u64>,
}

/// Crawl a mixed honest+Byzantine world at the given shard count. The
/// world carries churn (half the population cycles), UDP loss, latency
/// jitter, one identity-rotating spammer, and four adversaries breaking
/// the probe pipeline at different stages.
fn crawl(shards: usize, with_faults: bool) -> Artifacts {
    let recorder = obs::Recorder::new();
    recorder.install();
    let config = WorldConfig {
        seed: 4242,
        n_nodes: 24,
        duration_ms: SIM_MS,
        always_on_fraction: 0.5,
        spammer_ips: 1,
        udp_loss: 0.05,
        shards,
        ..WorldConfig::default()
    };
    let mut world = World::build(config);
    assert_eq!(world.sim.shard_count(), shards.max(1));

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
        // A burst of cross-shard UDP loss, then a global latency spike —
        // both windows overlap live crawl traffic. Fault draws come from
        // per-host RNG streams, so they too must be shard-invariant.
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
    world.sim.run_until(SIM_MS);

    let events = world.sim.events_processed();
    let shard_events = world.sim.shard_event_counts();
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
        shard_events,
    }
}

fn assert_identical(base: &Artifacts, other: &Artifacts, shards: usize) {
    assert_eq!(
        base.store_json, other.store_json,
        "DataStore diverged at {shards} shards"
    );
    assert_eq!(
        base.trace_jsonl, other.trace_jsonl,
        "obs JSONL trace diverged at {shards} shards"
    );
    assert_eq!(
        base.prometheus, other.prometheus,
        "Prometheus snapshot diverged at {shards} shards"
    );
    assert_eq!(
        base.funnel, other.funnel,
        "dial funnel diverged at {shards} shards"
    );
    assert_eq!(
        base.events, other.events,
        "event totals diverged at {shards} shards"
    );
}

/// Same seed, shard counts {1, 2, 4, 7}: every exported byte matches the
/// single-shard reference.
#[test]
fn exports_are_byte_identical_across_shard_counts() {
    let base = crawl(1, false);
    assert!(base.events > 1_000, "world too quiet to prove anything");
    assert!(
        !base.store_json.is_empty() && !base.trace_jsonl.is_empty(),
        "exports must be non-trivial"
    );
    for shards in SHARD_COUNTS {
        let sharded = crawl(shards, false);
        assert_identical(&base, &sharded, shards);
        // Work really spread across the shards…
        assert_eq!(sharded.shard_events.len(), shards);
        assert!(
            sharded.shard_events.iter().filter(|&&e| e > 0).count() > 1,
            "expected >1 active shard, got {:?}",
            sharded.shard_events
        );
        // …and the per-shard tallies cover every dispatched event.
        assert_eq!(sharded.shard_events.iter().sum::<u64>(), sharded.events);
    }
}

/// The same invariance with a fault schedule active: cross-shard loss
/// bursts and latency spikes draw from per-host RNG streams and must not
/// open a shard-visible divergence.
#[test]
fn exports_are_byte_identical_with_faults_active() {
    let base = crawl(1, true);
    let calm = crawl(1, false);
    assert!(base.events > 1_000, "world too quiet to prove anything");
    assert_ne!(
        base.trace_jsonl, calm.trace_jsonl,
        "fault schedule must actually perturb the trace"
    );
    for shards in SHARD_COUNTS {
        let sharded = crawl(shards, true);
        assert_identical(&base, &sharded, shards);
    }
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
