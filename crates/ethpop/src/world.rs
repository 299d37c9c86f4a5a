//! The world generator: samples a full synthetic DEVp2p ecosystem from the
//! paper's reported marginals and wires it into a simulator.
//!
//! Everything here is *ground truth* the crawler is never shown — the
//! experiment harness uses it only to validate coverage after the fact.

use crate::clients::{NodeProfile, ReleaseFamily, ReleasePlan, ServiceKind};
use crate::node::EthNode;
use devp2p::Capability;
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethwire::{Chain, ChainConfig, BYZANTIUM_BLOCK, DAO_FORK_BLOCK, SNAPSHOT_HEAD};
use netsim::{HostAddr, HostId, HostMeta, NetSim, SimConfig, REGION_OF_COUNTRY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Scale and composition knobs. Defaults target a world that runs in
/// seconds-to-minutes while preserving the paper's proportions.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of regular (non-spammer) DEVp2p nodes.
    pub n_nodes: usize,
    /// Simulated milliseconds per experiment "day" (time compression; the
    /// paper's 82 calendar days map onto `82 * day_ms`).
    pub day_ms: u64,
    /// How long the generated churn schedule must cover.
    pub duration_ms: u64,
    /// Fraction of nodes that are never publicly reachable (NAT'd).
    /// Table 2 implies ≈0.65 for the live network.
    pub unreachable_fraction: f64,
    /// Fraction of nodes that stay online for the whole run.
    pub always_on_fraction: f64,
    /// Mean online-session length for churning nodes, ms.
    pub mean_session_ms: u64,
    /// Mean offline gap for churning nodes, ms.
    pub mean_offline_ms: u64,
    /// Mean ms between a node's transaction gossip rounds.
    pub tx_interval_ms: u64,
    /// Abusive identity-rotating hosts (§5.4).
    pub spammer_ips: usize,
    /// Spammer identity lifetime, ms.
    pub spammer_rotation_ms: u64,
    /// Bootstrap nodes (always-on, reachable, known to everyone).
    pub n_bootstrap: usize,
    /// UDP loss probability.
    pub udp_loss: f64,
    /// Ablation (§6.3): give Parity nodes the *correct* log-distance
    /// metric instead of the buggy per-byte sum.
    pub parity_metric_fixed: bool,
    /// Override Parity's share of the Mainnet client mix (default 0.17,
    /// Table 4). The eclipse experiment saturates a world with Parity.
    pub parity_share: Option<f64>,
    /// Read by nothing: the engine runs one event queue. Kept only
    /// because the frozen `benchmark/` still sets it; the benchmark's
    /// contract-v2 change (ROADMAP item 6) deletes it and
    /// [`SimConfig::shards`].
    pub shards: usize,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            seed: 1804,
            n_nodes: 400,
            day_ms: 10 * 60 * 1000, // one "day" = 10 simulated minutes
            duration_ms: 30 * 60 * 1000,
            unreachable_fraction: 0.60,
            always_on_fraction: 0.35,
            mean_session_ms: 8 * 60 * 1000,
            mean_offline_ms: 6 * 60 * 1000,
            tx_interval_ms: 20_000,
            spammer_ips: 2,
            spammer_rotation_ms: 90_000,
            n_bootstrap: 3,
            udp_loss: 0.01,
            parity_metric_fixed: false,
            parity_share: None,
            shards: 1,
        }
    }
}

/// Which network/service a node belongs to — the world's label, used by
/// analysis only for validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruthKind {
    /// Non-Classic Mainnet Ethereum (the "productive" population).
    Mainnet,
    /// Ethereum Classic: same genesis, no DAO fork.
    Classic,
    /// Another eth-subprotocol network (testnets, altcoins, misconfigs).
    OtherEthNetwork {
        /// Network id it advertises.
        network_id: u64,
        /// Whether it (mis)advertises the Mainnet genesis hash.
        mainnet_genesis: bool,
    },
    /// Light client (les/pip).
    Light,
    /// Non-eth DEVp2p service.
    OtherService {
        /// Capability name.
        cap: &'static str,
    },
    /// §5.4 spammer host.
    Spammer,
}

/// Ground-truth record for one simulated host.
#[derive(Debug, Clone)]
pub struct GroundTruthNode {
    /// Simulator host id.
    pub host: HostId,
    /// Address.
    pub addr: HostAddr,
    /// First identity (spammers mint more over time).
    pub initial_id: NodeId,
    /// Service/network label.
    pub kind: TruthKind,
    /// Client family label ("Geth", "Parity", …).
    pub client_family: &'static str,
    /// Country code.
    pub country: &'static str,
    /// AS label.
    pub asn: &'static str,
    /// Publicly reachable?
    pub reachable: bool,
    /// Head height (eth nodes).
    pub head: u64,
    /// Online for the whole run?
    pub always_on: bool,
    /// Is this a bootstrap node?
    pub bootstrap: bool,
}

/// A generated world: simulator + ground truth + the bootstrap set.
#[derive(Debug)]
pub struct World {
    /// The simulator, fully populated and scheduled.
    pub sim: NetSim,
    /// Ground truth, indexed like the hosts.
    pub nodes: Vec<GroundTruthNode>,
    /// Bootstrap records every node (and the crawler) starts from.
    pub bootstrap: Vec<NodeRecord>,
    /// The config that produced it.
    pub config: WorldConfig,
}

// ---- marginal distributions from the paper ----------------------------

/// Fig 12 country shares.
const COUNTRY_WEIGHTS: [(&str, f64); 16] = [
    ("US", 0.432),
    ("CN", 0.129),
    ("DE", 0.060),
    ("SG", 0.040),
    ("KR", 0.035),
    ("FR", 0.030),
    ("CA", 0.025),
    ("RU", 0.025),
    ("GB", 0.023),
    ("JP", 0.020),
    ("NL", 0.018),
    ("AU", 0.015),
    ("BR", 0.012),
    ("IN", 0.012),
    ("UA", 0.010),
    ("ZA", 0.005),
];

/// Fig 13 AS shares (top 8 cloud ASes ≈ 44.8%, long ISP tail).
const ASN_WEIGHTS: [(&str, f64); 12] = [
    ("Amazon", 0.150),
    ("Alibaba", 0.080),
    ("DigitalOcean", 0.060),
    ("OVH", 0.045),
    ("Hetzner", 0.040),
    ("Google", 0.030),
    ("Comcast", 0.023),
    ("ChinaTelecom", 0.020),
    ("Azure", 0.018),
    ("Linode", 0.015),
    ("Vultr", 0.012),
    ("ISP-tail", 0.507),
];

/// The residential/commercial AS long tail: many small distinct networks,
/// so "top-8 AS share" (§7.2) is meaningful. Names are synthetic.
const ISP_TAIL: [&str; 40] = [
    "Comcast-Res",
    "Verizon",
    "ATT",
    "Charter",
    "Cox",
    "CenturyLink",
    "Frontier",
    "Windstream",
    "DeutscheTelekom",
    "Vodafone",
    "Orange",
    "Telefonica",
    "BT",
    "Sky",
    "Virgin",
    "Telia",
    "ChinaUnicom",
    "ChinaMobile",
    "KT",
    "SKB",
    "NTT",
    "KDDI",
    "Softbank",
    "Telstra",
    "Optus",
    "Rogers",
    "Bell",
    "Telus",
    "Claro",
    "Vivo",
    "Tim",
    "MTS",
    "Beeline",
    "Rostelecom",
    "Turkcell",
    "Etisalat",
    "Airtel",
    "Jio",
    "BSNL",
    "Singtel",
];

/// Table 3 capability mix for the non-eth & light slices, scaled to their
/// share of the DEVp2p population.
const OTHER_SERVICES: [(&str, u32, f64); 9] = [
    ("bzz", 1, 0.0185),
    ("les", 2, 0.0124),
    ("exp", 63, 0.0050),
    ("istanbul", 64, 0.0046),
    ("shh", 2, 0.0045),
    ("dbix", 62, 0.0028),
    ("pip", 1, 0.0027),
    ("mc", 62, 0.0016),
    ("ele", 62, 0.0008),
];

fn weighted_pick<T: Copy>(rng: &mut StdRng, items: &[(T, f64)]) -> T {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for (item, w) in items {
        if x < *w {
            return *item;
        }
        x -= w;
    }
    items.last().unwrap().0
}

impl World {
    /// Build a world from the config.
    pub fn build(config: WorldConfig) -> World {
        // Before the first key is derived: the memo tables hold what a
        // world of this many hosts reads back, not what 250,000 would.
        ethcrypto::secp256k1::fit_memo(config.n_bootstrap + config.n_nodes + config.spammer_ips);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let sim_config = SimConfig {
            seed: config.seed.wrapping_mul(0x9e3779b97f4a7c15),
            udp_loss: config.udp_loss,
            jitter_ms: 8,
            nat_window_ms: 120_000,
            ..SimConfig::default()
        };
        let mut sim = NetSim::new(sim_config);
        let mut nodes = Vec::new();

        // --- bootstrap nodes -------------------------------------------
        let mut bootstrap = Vec::new();
        for i in 0..config.n_bootstrap {
            let key = SecretKey::random(&mut rng);
            let addr = HostAddr::new(Ipv4Addr::new(5, 1, 83, 10 + i as u8), 30303);
            let record = NodeRecord::new(
                NodeId::from_secret_key(&key),
                Endpoint::new(addr.ip, addr.port),
            );
            bootstrap.push(record);
        }
        // Bootstrap hosts share one flyweight copy of the (throwaway)
        // record set; it is replaced wholesale after key re-derivation.
        let boot_peers: Rc<[NodeRecord]> = bootstrap.clone().into();
        for (i, record) in bootstrap.iter().enumerate() {
            let key_i = i; // bootstrap i's profile uses its own record set
            let chain = Chain::new(ChainConfig::mainnet(), SNAPSHOT_HEAD);
            let client_id = crate::releases::geth_client_id("v1.8.10");
            let mut profile = NodeProfile::geth(bootstrap_key(&mut rng, key_i), client_id, chain);
            // The record above was generated with a throwaway key; rebuild
            // it so id and key agree.
            profile.key = bootstrap_secret(config.seed, i);
            profile.tx_interval_ms = config.tx_interval_ms;
            let record = NodeRecord::new(profile.node_id(), record.endpoint);
            let addr = HostAddr::new(record.endpoint.ip, record.endpoint.tcp_port);
            let meta = HostMeta {
                country: "US",
                asn: "Amazon",
                region: REGION_OF_COUNTRY("US"),
                reachable: true,
            };
            let peers = boot_peers.clone();
            let host = sim.add_host(addr, meta, Box::new(EthNode::new(profile.clone(), peers)));
            sim.schedule_start(host, 0);
            nodes.push(GroundTruthNode {
                host,
                addr,
                initial_id: record.id,
                kind: TruthKind::Mainnet,
                client_family: "Geth",
                country: "US",
                asn: "Amazon",
                reachable: true,
                head: SNAPSHOT_HEAD,
                always_on: true,
                bootstrap: true,
            });
        }
        // Re-derive the bootstrap records from the final keys.
        let bootstrap: Vec<NodeRecord> = (0..config.n_bootstrap)
            .map(|i| {
                NodeRecord::new(
                    NodeId::from_secret_key(&bootstrap_secret(config.seed, i)),
                    Endpoint::new(Ipv4Addr::new(5, 1, 83, 10 + i as u8), 30303),
                )
            })
            .collect();
        // One shared allocation for the whole population: 50k hosts hold
        // 50k `Rc` pointers to this list, not 50k copies of it.
        let bootstrap_shared: Rc<[NodeRecord]> = bootstrap.clone().into();

        // --- regular population ----------------------------------------
        for i in 0..config.n_nodes {
            let key = SecretKey::random(&mut rng);
            let addr = HostAddr::new(ip_for(i), 30303);
            let country = weighted_pick(&mut rng, &COUNTRY_WEIGHTS);
            let mut asn = weighted_pick(&mut rng, &ASN_WEIGHTS);
            if asn == "ISP-tail" {
                asn = ISP_TAIL[rng.gen_range(0..ISP_TAIL.len())];
            }
            let reachable = !rng.gen_bool(config.unreachable_fraction);
            let (kind, mut profile) = sample_profile(&mut rng, key, &config);
            profile.tx_interval_ms = match profile.service {
                ServiceKind::Eth { .. } => config.tx_interval_ms,
                _ => 0,
            };
            let head = match &profile.service {
                ServiceKind::Eth { chain } => chain.head,
                _ => 0,
            };
            let client_family = family_label(&profile);
            let meta = HostMeta {
                country,
                asn,
                region: REGION_OF_COUNTRY(country),
                reachable,
            };
            let always_on = rng.gen_bool(config.always_on_fraction);
            let node = EthNode::new(profile, bootstrap_shared.clone());
            let host = sim.add_host(addr, meta, Box::new(node));
            schedule_churn(&mut sim, &mut rng, host, always_on, &config);
            nodes.push(GroundTruthNode {
                host,
                addr,
                initial_id: NodeId::from_secret_key(&key),
                kind,
                client_family,
                country,
                asn,
                reachable,
                head,
                always_on,
                bootstrap: false,
            });
        }

        // --- spammers ---------------------------------------------------
        for s in 0..config.spammer_ips {
            let key = SecretKey::random(&mut rng);
            let addr = HostAddr::new(Ipv4Addr::new(149, 129, 129, 190 + s as u8), 30303);
            let chain = Chain::new(ChainConfig::mainnet(), SNAPSHOT_HEAD);
            let profile = NodeProfile::spammer(key, chain, config.spammer_rotation_ms);
            let meta = HostMeta {
                country: "CN",
                asn: "Alibaba",
                region: REGION_OF_COUNTRY("CN"),
                reachable: true,
            };
            let host = sim.add_host(
                addr,
                meta,
                Box::new(EthNode::new(profile, bootstrap_shared.clone())),
            );
            sim.schedule_start(host, 0);
            nodes.push(GroundTruthNode {
                host,
                addr,
                initial_id: NodeId::from_secret_key(&key),
                kind: TruthKind::Spammer,
                client_family: "ethereumjs-devp2p",
                country: "CN",
                asn: "Alibaba",
                reachable: true,
                head: 0,
                always_on: true,
                bootstrap: false,
            });
        }

        World {
            sim,
            nodes,
            bootstrap,
            config,
        }
    }

    /// Mainnet ground-truth slice (excluding spammers), for validation.
    pub fn mainnet_nodes(&self) -> impl Iterator<Item = &GroundTruthNode> {
        self.nodes.iter().filter(|n| n.kind == TruthKind::Mainnet)
    }
}

// Deterministic bootstrap keys so records and profiles agree.
fn bootstrap_secret(seed: u64, i: usize) -> SecretKey {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_be_bytes());
    bytes[8] = i as u8 + 1;
    bytes[31] = 0x42;
    SecretKey::from_bytes(&bytes).expect("nonzero < n")
}

fn bootstrap_key(rng: &mut StdRng, _i: usize) -> SecretKey {
    // burn one key draw to keep the RNG stream stable regardless of the
    // bootstrap count fix-up above
    SecretKey::random(rng)
}

fn ip_for(i: usize) -> Ipv4Addr {
    // Unique public-looking IPs: 20.x.y.z spread.
    let i = i as u32;
    Ipv4Addr::new(
        20 + ((i >> 16) & 0x3f) as u8,
        ((i >> 8) & 0xff) as u8,
        (i & 0xff) as u8,
        10,
    )
}

fn family_label(profile: &NodeProfile) -> &'static str {
    match profile.kind {
        crate::clients::ClientKind::Geth => "Geth",
        crate::clients::ClientKind::Parity => "Parity",
        crate::clients::ClientKind::EthereumJs => "ethereumjs-devp2p",
        crate::clients::ClientKind::Other => "Other",
    }
}

/// Sample one node's service/network/client from the paper's marginals.
fn sample_profile(
    rng: &mut StdRng,
    key: SecretKey,
    config: &WorldConfig,
) -> (TruthKind, NodeProfile) {
    // Table 3: ~6% of DEVp2p nodes are non-eth services or light clients.
    let other_total: f64 = OTHER_SERVICES.iter().map(|(_, _, w)| w).sum();
    if rng.gen_bool(other_total) {
        let idx = rng.gen_range(0..OTHER_SERVICES.len());
        let (cap_name, cap_version, _) = OTHER_SERVICES[idx];
        let cap = Capability::new(cap_name, cap_version);
        let client_id = format!("{cap_name}-client/v1.0.0/linux");
        return if cap_name == "les" || cap_name == "pip" {
            (TruthKind::Light, NodeProfile::light(key, client_id, cap))
        } else {
            (
                TruthKind::OtherService { cap: cap_name },
                NodeProfile::other_service(key, client_id, cap),
            )
        };
    }

    // eth nodes: split across networks. Calibrated so that "fewer than
    // half of DEVp2p nodes contribute to the main blockchain" (§6.1).
    let roll: f64 = rng.gen();
    if roll < 0.55 {
        // Non-Classic Mainnet.
        let head = sample_head(rng);
        let chain = Chain::new(ChainConfig::mainnet(), head);
        let profile = sample_mainnet_client(rng, key, chain, config);
        (TruthKind::Mainnet, profile)
    } else if roll < 0.63 {
        // Ethereum Classic: same genesis, no DAO support.
        let chain = Chain::new(ChainConfig::classic(), sample_head(rng));
        let client_id = crate::releases::geth_client_id("v1.8.7");
        (TruthKind::Classic, NodeProfile::geth(key, client_id, chain))
    } else if roll < 0.66 {
        // Misconfigured: random network id advertising the Mainnet genesis.
        let network_id = rng.gen_range(100..100_000);
        let mut chain_config = ChainConfig::alt(network_id, rng.gen());
        chain_config.genesis_hash = ethwire::MAINNET_GENESIS;
        let chain = Chain::new(chain_config, rng.gen_range(0..1_000_000));
        let client_id = crate::releases::geth_client_id("v1.8.3");
        (
            TruthKind::OtherEthNetwork {
                network_id,
                mainnet_genesis: true,
            },
            NodeProfile::geth(key, client_id, chain),
        )
    } else {
        // Testnets and altcoins: a few big networks plus a long tail.
        let (network_id, label_head): (u64, u64) = match rng.gen_range(0..10) {
            0..=2 => (3, 3_200_000),         // Ropsten
            3..=4 => (4, 2_200_000),         // Rinkeby
            5 => (42, 7_000_000),            // Kovan
            6 => (7_762_959, 1_900_000),     // Musicoin
            7 => (3_125_659_152, 2_300_000), // Pirl
            8 => (8, 300_000),               // Ubiq
            _ => (rng.gen_range(1_000..4_000_000), rng.gen_range(1..500_000)),
        };
        let chain_config = ChainConfig::alt(network_id, network_id ^ 0xABCD);
        let chain = Chain::new(chain_config, label_head);
        let client_id = if rng.gen_bool(0.7) {
            crate::releases::geth_client_id("v1.8.4")
        } else {
            crate::releases::parity_client_id("v1.10.3", false)
        };
        (
            TruthKind::OtherEthNetwork {
                network_id,
                mainnet_genesis: false,
            },
            NodeProfile::geth(key, client_id, chain),
        )
    }
}

/// Freshness model for Fig 14: ~60% fresh, a lagging middle, 32.7% stale
/// (including Byzantium-stuck and pre-DAO-stuck nodes).
fn sample_head(rng: &mut StdRng) -> u64 {
    let roll: f64 = rng.gen();
    if roll < 0.60 {
        // fresh: within ~100 blocks of the network head
        SNAPSHOT_HEAD - rng.gen_range(0..100)
    } else if roll < 0.655 {
        // minor lag: hours behind
        SNAPSHOT_HEAD - rng.gen_range(100..20_000)
    } else if roll < 0.68 {
        // stuck at the first post-Byzantium block (§7.3: 141 of 15,454
        // nodes ≈ 0.9%; over-weighted slightly so the knot is visible at
        // hundreds-of-nodes scale)
        BYZANTIUM_BLOCK + 1
    } else if roll < 0.70 {
        // stuck before the DAO fork — can never prove fork support
        rng.gen_range(1_000..DAO_FORK_BLOCK)
    } else {
        // stale: weeks to years behind
        rng.gen_range(DAO_FORK_BLOCK..SNAPSHOT_HEAD - 200_000)
    }
}

/// Client mix among Mainnet nodes (Table 4) with version adoption plans
/// (Table 5 / Fig 10).
fn sample_mainnet_client(
    rng: &mut StdRng,
    key: SecretKey,
    chain: Chain,
    config: &WorldConfig,
) -> NodeProfile {
    // Client mix thresholds. With the default 17% Parity share these are
    // Table 4's numbers (Geth 76.6%, ethereumjs 5.2%, tail 1.2%); an
    // override rescales the non-Parity families proportionally.
    let parity_share = config.parity_share.unwrap_or(0.17).clamp(0.0, 1.0);
    let rest = 1.0 - parity_share;
    let geth_cut = 0.923 * rest;
    let parity_cut = geth_cut + parity_share;
    let js_cut = parity_cut + 0.0627 * rest;
    let roll: f64 = rng.gen();
    if roll < geth_cut {
        // Geth. 3.5% pinned to pre-Byzantium versions; others track with
        // an exponential-ish lag.
        let pinned = if rng.gen_bool(0.035) {
            Some(rng.gen_range(0..3)) // v1.5.9 / v1.6.1 / v1.6.7
        } else if rng.gen_bool(0.10) {
            Some(rng.gen_range(5..7)) // parked on v1.7.2 / v1.7.3
        } else {
            None
        };
        let lag_days = (-(1.0 - rng.gen::<f64>()).ln() * 8.0) as i64;
        let plan = ReleasePlan {
            family: ReleaseFamily::Geth,
            lag_days,
            pinned,
            day_ms: config.day_ms,
            // 18.1% of Geth nodes ran -unstable builds (Table 5).
            unstable_channel: rng.gen_bool(0.18),
        };
        let mut profile = NodeProfile::geth(key, plan.client_id_at(0), chain);
        profile.release_plan = Some(plan);
        profile
    } else if roll < parity_cut {
        // Parity (17% by default): faster, channel-mixed releases.
        let pinned = if rng.gen_bool(0.06) {
            Some(rng.gen_range(0..4))
        } else {
            None
        };
        let lag_days = (-(1.0 - rng.gen::<f64>()).ln() * 12.0) as i64;
        let plan = ReleasePlan {
            family: ReleaseFamily::Parity,
            lag_days,
            pinned,
            day_ms: config.day_ms,
            // Only 56.2% of Parity nodes were on stable builds (Table 5).
            unstable_channel: rng.gen_bool(0.42),
        };
        let mut profile = NodeProfile::parity(key, plan.client_id_at(0), chain);
        profile.release_plan = Some(plan);
        if config.parity_metric_fixed {
            profile.metric = kad::Metric::GethLog2;
        }
        profile
    } else if roll < js_cut {
        // ethereumjs (5.2%) — legitimate instances, not spammers.
        let mut profile = NodeProfile::geth(key, "ethereumjs-devp2p/v2.1.3/browser".into(), chain);
        profile.kind = crate::clients::ClientKind::EthereumJs;
        profile.max_peers = 10;
        profile
    } else {
        // The 31-client tail.
        let names = [
            "cpp-ethereum/v1.3.0",
            "EthereumJ/v1.8.0",
            "Harmony/v2.1",
            "pyethapp/v1.5.0",
        ];
        let name = names[rng.gen_range(0..names.len())];
        let mut profile = NodeProfile::geth(key, format!("{name}/linux"), chain);
        profile.kind = crate::clients::ClientKind::Other;
        profile
    }
}

/// Generate the on/off schedule for one churning host.
fn schedule_churn(
    sim: &mut NetSim,
    rng: &mut StdRng,
    host: HostId,
    always_on: bool,
    config: &WorldConfig,
) {
    // Stagger starts through the first minute.
    let mut t = rng.gen_range(0..60_000u64);
    sim.schedule_start(host, t);
    if always_on {
        return;
    }
    loop {
        let session = exp_sample(rng, config.mean_session_ms);
        t += session;
        if t >= config.duration_ms {
            break;
        }
        sim.schedule_stop(host, t);
        let offline = exp_sample(rng, config.mean_offline_ms);
        t += offline;
        if t >= config.duration_ms {
            break;
        }
        sim.schedule_start(host, t);
    }
}

fn exp_sample(rng: &mut StdRng, mean_ms: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0001..1.0);
    ((-u.ln()) * mean_ms as f64)
        .min(mean_ms as f64 * 6.0)
        .max(1000.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorldConfig {
        WorldConfig {
            n_nodes: 60,
            duration_ms: 5 * 60_000,
            spammer_ips: 1,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn world_builds_with_expected_counts() {
        let w = World::build(small_config());
        assert_eq!(w.nodes.len(), 60 + 3 + 1); // nodes + bootstrap + spammer
        assert_eq!(w.bootstrap.len(), 3);
        assert_eq!(w.sim.host_count(), 64);
    }

    #[test]
    fn bootstrap_records_match_profiles() {
        let w = World::build(small_config());
        for (i, b) in w.bootstrap.iter().enumerate() {
            let truth = &w.nodes[i];
            assert!(truth.bootstrap);
            assert_eq!(truth.initial_id, b.id);
            assert_eq!(truth.addr.ip, b.endpoint.ip);
        }
    }

    #[test]
    fn composition_roughly_matches_marginals() {
        let mut config = small_config();
        config.n_nodes = 800;
        let w = World::build(config);
        let regular: Vec<_> = w
            .nodes
            .iter()
            .filter(|n| !n.bootstrap && n.kind != TruthKind::Spammer)
            .collect();
        let mainnet = regular
            .iter()
            .filter(|n| n.kind == TruthKind::Mainnet)
            .count();
        let frac = mainnet as f64 / regular.len() as f64;
        assert!((0.42..0.62).contains(&frac), "mainnet fraction {frac}");
        let us = regular.iter().filter(|n| n.country == "US").count() as f64 / regular.len() as f64;
        assert!((0.35..0.52).contains(&us), "US fraction {us}");
        let unreachable =
            regular.iter().filter(|n| !n.reachable).count() as f64 / regular.len() as f64;
        assert!(
            (0.50..0.70).contains(&unreachable),
            "unreachable fraction {unreachable}"
        );
    }

    #[test]
    fn deterministic_across_builds() {
        let a = World::build(small_config());
        let b = World::build(small_config());
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(b.nodes.iter()) {
            assert_eq!(x.initial_id, y.initial_id);
            assert_eq!(x.country, y.country);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn world_snapshot_resume_matches_uninterrupted_run() {
        // Run straight to 2T…
        let mut full = World::build(small_config());
        full.sim.run_until(2 * 60_000);
        let full_snap = full.sim.snapshot().expect("snapshot");

        // …versus run to T, snapshot, restore into a freshly built shell
        // (same config ⇒ same static structure), continue to 2T.
        let mut first = World::build(small_config());
        first.sim.run_until(60_000);
        let snap = first.sim.snapshot().expect("snapshot");
        let mut resumed = World::build(small_config());
        resumed.sim.restore(&snap).expect("restore");
        resumed.sim.run_until(2 * 60_000);

        assert_eq!(resumed.sim.events_processed(), full.sim.events_processed());
        assert_eq!(resumed.sim.udp_counters(), full.sim.udp_counters());
        assert_eq!(
            resumed.sim.snapshot().expect("snapshot"),
            full_snap,
            "resumed world diverged from the uninterrupted run"
        );
    }

    #[test]
    fn world_runs_without_panic_and_produces_traffic() {
        let mut w = World::build(small_config());
        w.sim.run_until(3 * 60_000);
        let (sent, _) = w.sim.udp_counters();
        assert!(
            sent > 100,
            "expected discovery traffic, got {sent} datagrams"
        );
        assert!(w.sim.events_processed() > 1000);
    }
}
