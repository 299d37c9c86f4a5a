//! The four workloads: what world each one builds and how its simulated
//! time is cut into phases and windows.
//!
//! The constants here are the ones recorded in `BENCHMARK.json`; the mix of
//! every world is ISSUE 11's, the sizes are scaled to the per-run time cap
//! (see README.md, "Sizes").

use adversary::{GarbageHello, ResetAfterN, SlowLoris, Tarpit};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethpop::world::{World, WorldConfig};
use netsim::{Host, HostAddr, HostId, HostMeta, Region};
use nodefinder::{CrawlerConfig, NodeFinder};
use std::net::Ipv4Addr;

/// A stretch of simulated time cut into equal windows by extra
/// `run_until` boundaries (trace-invariant: the scheduler always
/// dispatches the globally minimal event, so an outer boundary changes
/// nothing it does).
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub end_ms: u64,
    pub windows: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub honest: usize,
    pub byzantine: usize,
    pub crawler: bool,
    pub shards: usize,
    /// `None` keeps `WorldConfig`'s default churn.
    pub always_on_fraction: Option<f64>,
    pub tx_interval_ms: u64,
    /// Cold start, from sim 0: the staggered-start minute, the join storm,
    /// first-use crypto.
    pub ramp: Phase,
    /// The phase the headline rate is taken over, starting where the ramp
    /// ends. `None`: the ramp *is* the timed phase (`scale_ramp`, whose
    /// storm is what every campaign pays and is not warmed away).
    pub timed: Option<Phase>,
    /// Every timed window ends in a checkpoint: snapshot → fresh shell →
    /// restore, and the next window runs on the restored world.
    pub checkpointed: bool,
    /// Untraced repetitions (fresh processes) that fit a 30-second run on
    /// the 2-core reference box; scaled with `--seconds`, never below two.
    pub reps: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "crawl_steady",
        why: "A real crawl timed past the staggered-start minute, every host started: udp, tcp_data and tcp_establish share busy time, so sign, ECIES, kad and the crawler stages all carry weight",
        honest: 147,
        byzantine: 3,
        crawler: true,
        shards: 1,
        always_on_fraction: None,
        tx_interval_ms: 20_000,
        ramp: Phase { end_ms: 60_000, windows: 60 },
        timed: Some(Phase { end_ms: 80_000, windows: 100 }),
        checkpointed: false,
        reps: 3,
    },
    Spec {
        name: "gossip_heavy",
        why: "Long-lived sessions, no crawler: tcp_data and timer dominate, many RLPx frames per handshake, memo caches all hit, so framing, AES-CTR, ethwire and scheduler work shows and handshake work least",
        honest: 150,
        byzantine: 0,
        crawler: false,
        shards: 1,
        always_on_fraction: Some(1.0),
        tx_interval_ms: 500,
        ramp: Phase { end_ms: 30_000, windows: 30 },
        timed: Some(Phase { end_ms: 50_000, windows: 100 }),
        checkpointed: false,
        reps: 4,
    },
    Spec {
        name: "scale_ramp",
        why: "Same engine used differently: 8 shards, barrier epochs, a deep wheel, a 10k-entry address index, first-use (pubkey and ECDH miss) crypto and flyweight memory, cold from sim 0",
        honest: 9_800,
        byzantine: 200,
        crawler: true,
        shards: 8,
        always_on_fraction: None,
        tx_interval_ms: 20_000,
        ramp: Phase { end_ms: 4_000, windows: 100 },
        timed: None,
        checkpointed: false,
        reps: 3,
    },
    Spec {
        name: "checkpoint_cycle",
        why: "Write beside read of the one snapshot stack (netsim::snap, ethpop::state, nodefinder::checkpoint): a codec change helps or costs each direction, and the resumed world must run like the original",
        honest: 1_500,
        byzantine: 0,
        crawler: true,
        shards: 1,
        always_on_fraction: None,
        tx_interval_ms: 20_000,
        ramp: Phase { end_ms: 8_000, windows: 40 },
        timed: Some(Phase { end_ms: 10_000, windows: 100 }),
        checkpointed: true,
        reps: 3,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// `--smoke`: one-tenth of every sim-time window, one repetition.
    pub fn smoke(mut self) -> Spec {
        let timed_len = self.timed.map(|t| t.end_ms - self.ramp.end_ms);
        self.ramp.end_ms /= 10;
        if let (Some(t), Some(len)) = (self.timed.as_mut(), timed_len) {
            t.end_ms = self.ramp.end_ms + len / 10;
        }
        self.reps = 1;
        self
    }

    pub fn end_ms(&self) -> u64 {
        self.timed.map_or(self.ramp.end_ms, |t| t.end_ms)
    }

    /// The world seed for a benchmark `--seed`: splitmix64 over the seed
    /// and the workload's position, so workloads never share a world.
    pub fn world_seed(&self, seed: u64) -> u64 {
        let index = WORKLOADS
            .iter()
            .position(|s| s.name == self.name)
            .expect("spec comes from WORKLOADS") as u64;
        let mut z = seed
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A world ready to run, and what the harness needs to read it afterwards.
pub struct Built {
    pub world: World,
    pub crawler: Option<HostId>,
    /// `(host, archetype)` for the profiler's cost roll-up: client family,
    /// `bootstrap`, adversary kind, `crawler`.
    pub labels: Vec<(HostId, &'static str)>,
}

/// Build the workload's world: `World::build`, then the byzantine hosts,
/// then the crawler, all scheduled from sim 0 — everything `setup_s` times.
pub fn build(spec: &Spec, world_seed: u64) -> Built {
    let defaults = WorldConfig::default();
    let config = WorldConfig {
        seed: world_seed,
        n_nodes: spec.honest,
        duration_ms: spec.end_ms(),
        tx_interval_ms: spec.tx_interval_ms,
        shards: spec.shards,
        // A constant 16 (two per shard at 8 shards), never scaled with
        // `shards`: world content must not depend on the shard count.
        n_bootstrap: 16,
        always_on_fraction: spec
            .always_on_fraction
            .unwrap_or(defaults.always_on_fraction),
        ..defaults
    };
    let mut world = World::build(config);
    let mut labels: Vec<(HostId, &'static str)> = world
        .nodes
        .iter()
        .map(|n| {
            let label = if n.bootstrap {
                "bootstrap"
            } else {
                n.client_family
            };
            (n.host, label)
        })
        .collect();
    let mut bootstrap = world.bootstrap.clone();

    type AdvFactory = fn(SecretKey, Vec<Endpoint>) -> Box<dyn Host>;
    let factories: [(AdvFactory, &'static str); 4] = [
        (|k, b| Box::new(SlowLoris::new(k, b)), "SlowLoris"),
        (|k, b| Box::new(GarbageHello::new(k, b)), "GarbageHello"),
        (|k, b| Box::new(Tarpit::new(k, b)), "Tarpit"),
        (|k, b| Box::new(ResetAfterN::new(k, b)), "ResetAfterN"),
    ];
    let boot_eps: Vec<Endpoint> = world.bootstrap.iter().map(|r| r.endpoint).collect();
    for i in 0..spec.byzantine {
        let mut key_bytes = [0xB0u8; 32];
        key_bytes[30] = (i >> 8) as u8;
        key_bytes[31] = i as u8;
        let key = SecretKey::from_bytes(&key_bytes).expect("adversary key is a valid scalar");
        let ep = Endpoint::new(
            Ipv4Addr::new(203, 0, (113 + i / 250) as u8, (i % 250) as u8 + 1),
            30303,
        );
        bootstrap.push(NodeRecord::new(NodeId::from_secret_key(&key), ep));
        let (factory, label) = factories[i % factories.len()];
        let host = world.sim.add_host(
            HostAddr::new(ep.ip, ep.tcp_port),
            HostMeta {
                country: "US",
                asn: "Test",
                region: Region::NorthAmerica,
                reachable: true,
            },
            factory(key, boot_eps.clone()),
        );
        labels.push((host, label));
        world.sim.schedule_start(host, 0);
    }

    let crawler = spec.crawler.then(|| {
        let key = SecretKey::from_bytes(&[0xCB; 32]).expect("crawler key is a valid scalar");
        let finder = NodeFinder::new(
            key,
            CrawlerConfig {
                static_redial_interval_ms: 30_000,
                stale_after_ms: spec.end_ms(),
                probe_timeout_ms: 30_000,
                ..CrawlerConfig::default()
            },
            bootstrap,
        );
        let host = world.sim.add_host(
            HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
            HostMeta::default_cloud(),
            Box::new(finder),
        );
        labels.push((host, "crawler"));
        world.sim.schedule_start(host, 0);
        host
    });

    Built {
        world,
        crawler,
        labels,
    }
}
