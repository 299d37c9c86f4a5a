//! Experiment harness behind the one `repro` binary: the three shared
//! measurement campaigns, the world-building helpers the stand-alone
//! experiments use, and the artifact registry ([`REGISTRY`]).
//!
//! Scaling: the paper ran 30 NodeFinder instances for 82 calendar days
//! against ~30k daily nodes. The harness compresses time (`day_ms`
//! simulated milliseconds per "day") and population (hundreds of nodes)
//! while scaling the crawler's long intervals by the same factor, so
//! *rates per day* and *ratios* remain comparable. Absolute counts scale
//! with the world; shapes are what EXPERIMENTS.md compares.
#![forbid(unsafe_code)]

use adversary::{GarbageHello, ResetAfterN, SlowLoris, Tarpit};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethpop::world::{World, WorldConfig};
use ethpop::{EthNode, NodeProfile, NodeStats};
use ethwire::{Chain, ChainConfig, SNAPSHOT_HEAD};
use netsim::{Host, HostAddr, HostId, HostMeta, Region};
use nodefinder::{sanitize, CrawlLog, CrawlerConfig, DataStore, NodeFinder, SanitizeReport};
use std::net::Ipv4Addr;

mod analysis;
mod extras;
mod paper;
mod registry;
mod trace_report;
mod xor_experiment;

pub use analysis::{
    as_distribution, client_table, count_table, country_distribution, freshness, funnel,
    latency_cdf, networks, services_table, size_comparison, top_as_share, GeoDb,
};
pub use registry::{check_files, experiments_md, Campaigns, Entry, REGISTRY};
pub use trace_report::{campaign, chain, parse_prom, parse_trace};

/// Standard experiment scales, chosen to finish on a small machine.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Master seed.
    pub seed: u64,
    /// Regular population size.
    pub n_nodes: usize,
    /// Simulated ms per experiment "day".
    pub day_ms: u64,
    /// Number of "days" to run.
    pub days: usize,
    /// NodeFinder instances (the paper ran 30).
    pub crawlers: u32,
}

impl Scale {
    /// The longitudinal ("82-day ecosystem") campaign, compressed.
    pub fn ecosystem() -> Scale {
        Scale {
            seed: 1804,
            n_nodes: 150,
            day_ms: 60_000,
            days: 12,
            crawlers: 3,
        }
    }

    /// The 24-hour snapshot campaign.
    pub fn snapshot() -> Scale {
        Scale {
            seed: 422,
            n_nodes: 180,
            day_ms: 8 * 60_000,
            days: 1,
            crawlers: 3,
        }
    }

    /// The §3 case-study world (one instrumented Geth + Parity pair).
    /// Larger and better-connected than the crawl worlds: the live network
    /// offered the case-study nodes an effectively unlimited peer supply,
    /// so the worlds must not make peer scarcity the binding constraint.
    pub fn case_study() -> Scale {
        Scale {
            seed: 131,
            n_nodes: 130,
            day_ms: 2 * 60_000,
            days: 5,
            crawlers: 0,
        }
    }

    /// Total run length.
    pub fn run_ms(&self) -> u64 {
        self.day_ms * self.days as u64
    }
}

/// The `SEED` / `NODES` / `DAYS` / `CRAWLERS` environment overrides: any
/// experiment can be re-run at another scale without editing code. A run
/// with one set writes under `results/override/`, never over the
/// default-scale files `repro all --check` guards.
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// `SEED`.
    pub seed: Option<u64>,
    /// `NODES`.
    pub nodes: Option<usize>,
    /// `DAYS`.
    pub days: Option<usize>,
    /// `CRAWLERS`.
    pub crawlers: Option<u32>,
}

impl Overrides {
    /// Read the four variables; `Err` names the one that does not parse.
    pub fn from_env() -> Result<Overrides, String> {
        fn var<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
            match std::env::var(name) {
                Err(std::env::VarError::NotPresent) => Ok(None),
                Err(_) => Err(format!("{name} is not valid unicode")),
                Ok(v) => match v.parse() {
                    Ok(parsed) => Ok(Some(parsed)),
                    Err(_) => Err(format!("{name}={v:?} is not a number")),
                },
            }
        }
        Ok(Overrides {
            seed: var("SEED")?,
            nodes: var("NODES")?,
            days: var("DAYS")?,
            crawlers: var("CRAWLERS")?,
        })
    }

    /// Is any override set?
    pub fn any(&self) -> bool {
        self.seed.is_some()
            || self.nodes.is_some()
            || self.days.is_some()
            || self.crawlers.is_some()
    }

    /// `base` with every set override applied.
    pub fn apply(&self, base: Scale) -> Scale {
        Scale {
            seed: self.seed.unwrap_or(base.seed),
            n_nodes: self.nodes.unwrap_or(base.n_nodes),
            day_ms: base.day_ms,
            days: self.days.unwrap_or(base.days),
            crawlers: self.crawlers.unwrap_or(base.crawlers),
        }
    }
}

/// Where the paper's own machines sat.
const UIUC: HostMeta = HostMeta {
    country: "US",
    asn: "UIUC",
    region: Region::NorthAmerica,
    reachable: true,
};

/// Add a host and schedule its start at t=0.
fn start_host(world: &mut World, ip: [u8; 4], meta: HostMeta, behaviour: Box<dyn Host>) -> HostId {
    let host = world
        .sim
        .add_host(HostAddr::new(Ipv4Addr::from(ip), 30303), meta, behaviour);
    world.sim.schedule_start(host, 0);
    host
}

/// Take a host's behaviour back out of the simulator as its concrete type.
fn take_host<T: 'static>(world: &mut World, host: HostId) -> T {
    *world
        .sim
        .remove_host_behaviour(host)
        .expect("host still installed")
        .into_any()
        .downcast::<T>()
        .expect("host has the requested type")
}

fn world_config(scale: &Scale, spammers: usize) -> WorldConfig {
    WorldConfig {
        seed: scale.seed,
        n_nodes: scale.n_nodes,
        day_ms: scale.day_ms,
        duration_ms: scale.run_ms(),
        spammer_ips: spammers,
        spammer_rotation_ms: (scale.day_ms / 40).max(10_000),
        tx_interval_ms: 20_000,
        ..WorldConfig::default()
    }
}

fn crawler_config(scale: &Scale, instance: u32) -> CrawlerConfig {
    // Paper intervals scaled by day_ms / 24h.
    let scaled = |real_ms: u64| -> u64 {
        ((real_ms as u128 * scale.day_ms as u128) / (24 * 3600 * 1000u128)).max(1_000) as u64
    };
    CrawlerConfig {
        instance,
        lookup_interval_ms: 4_000,
        static_redial_interval_ms: scaled(30 * 60 * 1000),
        stale_after_ms: scaled(24 * 3600 * 1000).max(scale.day_ms),
        max_active_dials: 16,
        probe_timeout_ms: 30_000,
        dao_check: true,
        hold_connections: false,
        ..CrawlerConfig::default()
    }
}

/// The key crawler instance `i` runs under.
fn crawler_key(i: u32) -> SecretKey {
    let mut key_bytes = [0xC7u8; 32];
    key_bytes[30] = (i >> 8) as u8;
    key_bytes[31] = i as u8;
    SecretKey::from_bytes(&key_bytes).expect("valid key")
}

/// Add `n` NodeFinder instances to a world; returns their host ids.
fn add_crawlers(
    world: &mut World,
    n: u32,
    make_config: impl Fn(u32) -> CrawlerConfig,
) -> Vec<HostId> {
    (0..n)
        .map(|i| {
            let crawler = NodeFinder::new(crawler_key(i), make_config(i), world.bootstrap.clone());
            start_host(world, [192, 17, 100, 10 + i as u8], UIUC, Box::new(crawler))
        })
        .collect()
}

/// Build `config`'s world, let one NodeFinder (at crawler instance 0's
/// address) crawl it to `config.duration_ms`, and hand both back.
fn crawl_world(config: WorldConfig, key: SecretKey, crawler: CrawlerConfig) -> (World, NodeFinder) {
    let until = config.duration_ms;
    let mut world = World::build(config);
    let crawler = NodeFinder::new(key, crawler, world.bootstrap.clone());
    let host = start_host(&mut world, [192, 17, 100, 10], UIUC, Box::new(crawler));
    world.sim.run_until(until);
    let crawler = take_host(&mut world, host);
    (world, crawler)
}

/// `config`'s world plus `byzantine` adversaries (the four archetypes of
/// `tests/full_stack.rs`, round-robin) that the crawler is told about as
/// extra bootstrap nodes, plus that crawler. Every host carries a
/// profiler archetype label. Nothing has run yet.
pub fn mixed_world(config: WorldConfig, byzantine: usize, crawler: CrawlerConfig) -> World {
    let mut world = World::build(config);
    for n in &world.nodes {
        let label = if n.bootstrap {
            "bootstrap"
        } else {
            n.client_family
        };
        obs::profile::host_label(n.host as u64, label);
    }
    type AdvFactory = fn(SecretKey, Vec<Endpoint>) -> Box<dyn Host>;
    let archetypes: [(&str, AdvFactory); 4] = [
        ("SlowLoris", |k, b| Box::new(SlowLoris::new(k, b))),
        ("GarbageHello", |k, b| Box::new(GarbageHello::new(k, b))),
        ("Tarpit", |k, b| Box::new(Tarpit::new(k, b))),
        ("ResetAfterN", |k, b| Box::new(ResetAfterN::new(k, b))),
    ];
    let boot_eps: Vec<Endpoint> = world.bootstrap.iter().map(|r| r.endpoint).collect();
    let mut bootstrap = world.bootstrap.clone();
    for i in 0..byzantine {
        // One key per adversary: the archetype picks the fill byte, the
        // round number perturbs the tail.
        let mut key_bytes = [0xA0 + (i % 4) as u8; 32];
        key_bytes[30] ^= (i >> 10) as u8;
        key_bytes[31] ^= (i >> 2) as u8;
        let key = SecretKey::from_bytes(&key_bytes).expect("adversary key");
        let ip = [203, 0, (113 + i / 250) as u8, (i % 250) as u8 + 1];
        bootstrap.push(NodeRecord::new(
            NodeId::from_secret_key(&key),
            Endpoint::new(Ipv4Addr::from(ip), 30303),
        ));
        let (label, factory) = archetypes[i % 4];
        let meta = HostMeta {
            asn: "Test",
            ..UIUC
        };
        let host = start_host(&mut world, ip, meta, factory(key, boot_eps.clone()));
        obs::profile::host_label(host as u64, label);
    }
    let key = SecretKey::from_bytes(&[0xCB; 32]).expect("crawler key");
    let crawler = Box::new(NodeFinder::new(key, crawler, bootstrap));
    let host = start_host(
        &mut world,
        [192, 17, 100, 1],
        HostMeta::default_cloud(),
        crawler,
    );
    obs::profile::host_label(host as u64, "crawler");
    world
}

/// Sanitization thresholds for simulated datasets.
///
/// The paper set its 30-minute thresholds *after observing* the spammers:
/// between the abusive generation rate (minutes) and honest session
/// lengths (hours). The simulation compresses time non-uniformly (protocol
/// RTTs stay real while "days" shrink), so the faithful translation is the
/// same *ordering*: spammer rotation (≈10–15s sim) < threshold (60s) <
/// honest session length (minutes).
fn sim_sanitize_params() -> nodefinder::SanitizeParams {
    nodefinder::SanitizeParams {
        short_lived_ms: 60_000,
        min_nodes_per_ip: 3,
        max_generation_interval_ms: 60_000,
    }
}

/// Everything a crawl campaign produces.
#[derive(Debug)]
pub struct CrawlRun {
    /// The world (ground truth — used only for validation/geo resolution).
    pub world: World,
    /// Merged log across crawler instances.
    pub merged: CrawlLog,
    /// Per-instance logs.
    pub per_instance: Vec<CrawlLog>,
    /// Aggregated dataset, as crawled.
    pub store: DataStore,
    /// The dataset after §5.4 sanitization (`sim_sanitize_params`).
    pub clean: DataStore,
    /// What sanitization removed.
    pub report: SanitizeReport,
    /// The scale used.
    pub scale: Scale,
}

/// Collect the crawlers' logs out of a finished world.
fn finish_crawl(mut world: World, hosts: Vec<HostId>, scale: Scale) -> CrawlRun {
    let per_instance: Vec<CrawlLog> = hosts
        .into_iter()
        .map(|host| take_host::<NodeFinder>(&mut world, host).log)
        .collect();
    let mut merged = CrawlLog::default();
    for log in &per_instance {
        merged.merge(log.clone());
    }
    let store = DataStore::from_log(&merged);
    let (clean, report) = sanitize(&store, sim_sanitize_params());
    CrawlRun {
        world,
        merged,
        per_instance,
        store,
        clean,
        report,
        scale,
    }
}

/// Run a full crawl campaign at the given scale.
fn run_crawl(scale: Scale, spammers: usize) -> CrawlRun {
    let mut world = World::build(world_config(&scale, spammers));
    let hosts = add_crawlers(&mut world, scale.crawlers, |i| crawler_config(&scale, i));
    world.sim.run_until(scale.run_ms());
    finish_crawl(world, hosts, scale)
}

/// Snapshot campaign: NodeFinder *and* the Ethernodes-style collector on
/// the same world (Table 2 / Table 6).
#[derive(Debug)]
pub struct SnapshotRun {
    /// NodeFinder's view.
    pub nodefinder: CrawlRun,
    /// The Ethernodes-style collector's dataset, sanitized.
    pub ethernodes: DataStore,
}

/// Run the snapshot campaign.
fn run_snapshot(scale: Scale) -> SnapshotRun {
    let mut world = World::build(world_config(&scale, 1));
    let nf_hosts = add_crawlers(&mut world, scale.crawlers, |i| crawler_config(&scale, i));
    // One Ethernodes-style collector.
    let en = NodeFinder::new(
        SecretKey::from_bytes(&[0xE7u8; 32]).expect("valid key"),
        CrawlerConfig::ethernodes_style(),
        world.bootstrap.clone(),
    );
    let en_meta = HostMeta {
        country: "DE",
        asn: "Hetzner",
        region: Region::Europe,
        reachable: true,
    };
    let en_host = start_host(&mut world, [88, 99, 10, 5], en_meta, Box::new(en));
    world.sim.run_until(scale.run_ms());

    let en_log = take_host::<NodeFinder>(&mut world, en_host).log;
    let (ethernodes, _) = sanitize(&DataStore::from_log(&en_log), sim_sanitize_params());
    SnapshotRun {
        nodefinder: finish_crawl(world, nf_hosts, scale),
        ethernodes,
    }
}

/// §3 case study: an instrumented Geth-like and Parity-like node in a
/// busy world; returns their stats (Figures 2–4, Table 1).
#[derive(Debug)]
pub struct CaseStudy {
    /// The instrumented Geth node's counters.
    pub geth: NodeStats,
    /// The instrumented Parity node's counters.
    pub parity: NodeStats,
}

/// Run the case study.
fn run_case_study(scale: Scale) -> CaseStudy {
    let mut config = world_config(&scale, 0);
    // The case-study machines were beefy and the network busy: make
    // gossip lively so TRANSACTIONS dominate as in Figs 2/3, and keep the
    // peer supply plentiful (most of the live network was dialable *by
    // someone*; a 50-slot client never ran out of candidates).
    config.tx_interval_ms = 8_000;
    config.always_on_fraction = 0.85;
    config.unreachable_fraction = 0.35;
    let mut world = World::build(config);

    let mut add = |seed: u8, parity: bool| -> HostId {
        let key = SecretKey::from_bytes(&[seed; 32]).expect("valid");
        let chain = Chain::new(ChainConfig::mainnet(), SNAPSHOT_HEAD);
        let profile = if parity {
            NodeProfile::parity(key, "Parity/v1.7.9-stable/case-study".into(), chain)
        } else {
            NodeProfile::geth(key, "Geth/v1.7.3-stable/case-study".into(), chain)
        };
        let node = EthNode::new(profile, world.bootstrap.clone()).sampling_peers();
        let last_octet = 1 + u8::from(parity);
        start_host(&mut world, [192, 17, 90, last_octet], UIUC, Box::new(node))
    };
    let geth_host = add(0xA1, false);
    let parity_host = add(0xA2, true);
    world.sim.run_until(scale.run_ms());
    CaseStudy {
        geth: take_host::<EthNode>(&mut world, geth_host).stats().clone(),
        parity: take_host::<EthNode>(&mut world, parity_host)
            .stats()
            .clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        for s in [Scale::ecosystem(), Scale::snapshot(), Scale::case_study()] {
            assert!(s.run_ms() > 0);
            assert!(s.n_nodes >= 50);
        }
    }

    #[test]
    fn crawler_config_scales_intervals() {
        let scale = Scale {
            seed: 1,
            n_nodes: 50,
            day_ms: 60_000,
            days: 1,
            crawlers: 1,
        };
        let cfg = crawler_config(&scale, 0);
        // 30 min of a 24h day = 1/48 of day_ms, min-clamped to 1s.
        assert_eq!(cfg.static_redial_interval_ms, 1_250);
        assert!(cfg.stale_after_ms >= scale.day_ms);
    }
}
