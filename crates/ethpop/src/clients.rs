//! Node profiles: everything that parameterizes one behavioral node.

use devp2p::{Capability, Hello, P2P_VERSION};
use discv4::Config as DiscConfig;
use enode::NodeId;
use ethcrypto::secp256k1::SecretKey;
use ethwire::{Chain, Status};
use kad::Metric;
use std::rc::Rc;

/// Client family, driving behavioral differences observed in §3 and §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// Go-ethereum: 25-peer default, broadcasts transactions to **all**
    /// peers, correct XOR metric, sends `SubprotocolError` on chain
    /// mismatch.
    Geth,
    /// Parity: 50-peer default, broadcasts to **√n** peers, the buggy
    /// per-byte XOR metric, never sends codes above `0x0b` (so chain
    /// mismatch becomes `UselessPeer`).
    Parity,
    /// ethereumjs-devp2p — also what the §5.4 spammers ran.
    EthereumJs,
    /// Everything else (cpp-ethereum, Harmony, exotica).
    Other,
}

/// How a client fans out TRANSACTIONS gossip (§3 observation 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxBroadcast {
    /// Geth: every peer gets every transaction.
    AllPeers,
    /// Parity: only √n of n peers.
    SqrtPeers,
}

/// What the node actually serves on DEVp2p.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceKind {
    /// A full Ethereum node on some chain.
    Eth {
        /// The chain it follows (Mainnet, Classic, altcoin…).
        chain: Chain,
    },
    /// A light client (`les`/`pip`): discoverable, HELLOs fine, but serves
    /// no eth STATUS — NodeFinder can never classify its network (§5.3).
    Light,
    /// A non-Ethereum DEVp2p service (bzz, shh, istanbul, dbix…): the
    /// capability list alone defines it.
    OtherService,
}

/// Full parameterization of one node.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// Identity key (the node ID derives from it).
    pub key: SecretKey,
    /// Client family.
    pub kind: ClientKind,
    /// HELLO client-id string.
    pub client_id: String,
    /// Advertised capabilities. Flyweight state: the list is immutable
    /// after construction, so nodes built from the same archetype share
    /// one allocation (cloning the profile clones a pointer, not the
    /// strings inside).
    pub capabilities: Rc<[Capability]>,
    /// Service behaviour.
    pub service: ServiceKind,
    /// Maximum concurrent session peers.
    pub max_peers: usize,
    /// Routing-table distance metric.
    pub metric: Metric,
    /// Transaction gossip policy.
    pub tx_broadcast: TxBroadcast,
    /// Mean milliseconds between transaction gossip rounds (0 = never).
    pub tx_interval_ms: u64,
    /// If set, the node abandons its identity and mints a fresh node ID
    /// every this-many ms — the §5.4 abusive spammer behaviour.
    pub identity_rotation_ms: Option<u64>,
    /// If set, the node recomputes its client-id string whenever it
    /// (re)starts, modeling version upgrades applied on restart (Fig 10).
    pub release_plan: Option<ReleasePlan>,
}

/// How a node tracks its client's release schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleasePlan {
    /// Which schedule to follow.
    pub family: ReleaseFamily,
    /// Personal adoption lag in days (0 = updates immediately).
    pub lag_days: i64,
    /// A node that never updates stays pinned to this release index.
    pub pinned: Option<usize>,
    /// Simulated milliseconds per "day" (time compression knob).
    pub day_ms: u64,
    /// Runs development/beta builds: Geth operators building `-unstable`
    /// from source, Parity users on the beta channel. Table 5's
    /// stable/unstable split comes from this population.
    pub unstable_channel: bool,
}

/// Release-schedule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseFamily {
    /// Geth's single stable channel.
    Geth,
    /// Parity's stable/beta mix.
    Parity,
}

impl ReleasePlan {
    /// The client-id string this plan produces at simulated time `now_ms`.
    pub fn client_id_at(&self, now_ms: u64) -> String {
        let day = (now_ms / self.day_ms.max(1)) as i64;
        match self.family {
            ReleaseFamily::Geth => {
                let r = crate::releases::version_at(
                    &crate::releases::GETH_RELEASES,
                    day,
                    self.lag_days,
                    self.pinned,
                );
                if self.unstable_channel {
                    crate::releases::geth_client_id_unstable(r.version)
                } else {
                    crate::releases::geth_client_id(r.version)
                }
            }
            ReleaseFamily::Parity => {
                let r = crate::releases::version_at(
                    &crate::releases::PARITY_RELEASES,
                    day,
                    self.lag_days,
                    self.pinned,
                );
                // Beta-channel users run whatever is newest (often a beta);
                // stable-channel users still report betas when the newest
                // release they adopted was one.
                let stable = r.stable && !self.unstable_channel;
                crate::releases::parity_client_id(r.version, stable)
            }
        }
    }
}

impl NodeProfile {
    /// The node's current ID.
    pub fn node_id(&self) -> NodeId {
        NodeId::from_secret_key(&self.key)
    }

    /// A Geth-flavoured Mainnet profile.
    pub fn geth(key: SecretKey, client_id: String, chain: Chain) -> NodeProfile {
        NodeProfile {
            key,
            kind: ClientKind::Geth,
            client_id,
            capabilities: vec![Capability::eth62(), Capability::eth63()].into(),
            service: ServiceKind::Eth { chain },
            max_peers: 25,
            metric: Metric::GethLog2,
            tx_broadcast: TxBroadcast::AllPeers,
            tx_interval_ms: 4_000,
            identity_rotation_ms: None,
            release_plan: None,
        }
    }

    /// A Parity-flavoured Mainnet profile (note the buggy metric).
    pub fn parity(key: SecretKey, client_id: String, chain: Chain) -> NodeProfile {
        NodeProfile {
            key,
            kind: ClientKind::Parity,
            client_id,
            capabilities: vec![Capability::eth62(), Capability::eth63()].into(),
            service: ServiceKind::Eth { chain },
            max_peers: 50,
            metric: Metric::ParityByteSum,
            tx_broadcast: TxBroadcast::SqrtPeers,
            tx_interval_ms: 4_000,
            identity_rotation_ms: None,
            release_plan: None,
        }
    }

    /// A non-Ethereum DEVp2p service (Swarm, Whisper, Istanbul…).
    pub fn other_service(key: SecretKey, client_id: String, cap: Capability) -> NodeProfile {
        NodeProfile {
            key,
            kind: ClientKind::Other,
            client_id,
            capabilities: vec![cap].into(),
            service: ServiceKind::OtherService,
            max_peers: 25,
            metric: Metric::GethLog2,
            tx_broadcast: TxBroadcast::AllPeers,
            tx_interval_ms: 0,
            identity_rotation_ms: None,
            release_plan: None,
        }
    }

    /// A light client.
    pub fn light(key: SecretKey, client_id: String, cap: Capability) -> NodeProfile {
        NodeProfile {
            key,
            kind: ClientKind::Other,
            client_id,
            capabilities: vec![cap].into(),
            service: ServiceKind::Light,
            max_peers: 25,
            metric: Metric::GethLog2,
            tx_broadcast: TxBroadcast::AllPeers,
            tx_interval_ms: 0,
            identity_rotation_ms: None,
            release_plan: None,
        }
    }

    /// The §5.4 spammer: an ethereumjs node that mints a fresh identity
    /// every `rotation_ms` and always reports the genesis block as its
    /// best hash.
    pub fn spammer(key: SecretKey, chain: Chain, rotation_ms: u64) -> NodeProfile {
        let mut chain = chain;
        chain.head = 0; // best hash is always the genesis block
        NodeProfile {
            key,
            kind: ClientKind::EthereumJs,
            client_id: "ethereumjs-devp2p/v2.1.3/linux/node8.9.0".into(),
            capabilities: vec![Capability::eth63()].into(),
            service: ServiceKind::Eth { chain },
            max_peers: 10,
            metric: Metric::GethLog2,
            tx_broadcast: TxBroadcast::AllPeers,
            tx_interval_ms: 0,
            identity_rotation_ms: Some(rotation_ms),
            release_plan: None,
        }
    }

    /// A deep, unshared copy of this profile: every flyweight (`Rc`)
    /// field is re-allocated privately. The flyweight equivalence tests
    /// run the same behavior against shared and unshared state to prove
    /// the shared representation is observationally identical.
    pub fn unshared(&self) -> NodeProfile {
        let mut p = self.clone();
        p.capabilities = p.capabilities.to_vec().into();
        p
    }

    /// How many of `n` peers receive a transaction broadcast round.
    pub fn tx_fanout(&self, n: usize) -> usize {
        match self.tx_broadcast {
            TxBroadcast::AllPeers => n,
            TxBroadcast::SqrtPeers => (n as f64).sqrt().ceil() as usize,
        }
    }

    /// Discovery's defaults with this profile's distance metric.
    pub(crate) fn disc_config(&self) -> DiscConfig {
        DiscConfig {
            metric: self.metric,
            ..DiscConfig::default()
        }
    }

    /// The HELLO this node sends, announcing `listen_port`.
    pub(crate) fn hello(&self, listen_port: u16) -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            client_id: self.client_id.clone(),
            capabilities: self.capabilities.to_vec(),
            listen_port,
            node_id: self.node_id(),
        }
    }

    /// The STATUS this node sends, if it serves eth.
    pub(crate) fn status(&self) -> Option<Status> {
        match &self.service {
            ServiceKind::Eth { chain } => Some(Status {
                protocol_version: 63,
                network_id: chain.config.network_id,
                total_difficulty: chain.total_difficulty(),
                best_hash: chain.best_hash(),
                genesis_hash: chain.config.genesis_hash,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethwire::ChainConfig;

    fn key() -> SecretKey {
        SecretKey::from_bytes(&[3u8; 32]).unwrap()
    }

    #[test]
    fn geth_profile_defaults() {
        let p = NodeProfile::geth(
            key(),
            "Geth/v1.8.11".into(),
            Chain::new(ChainConfig::mainnet(), 100),
        );
        assert_eq!(p.max_peers, 25);
        assert_eq!(p.metric, Metric::GethLog2);
        assert_eq!(p.tx_broadcast, TxBroadcast::AllPeers);
        assert_eq!(p.tx_fanout(25), 25);
    }

    #[test]
    fn parity_profile_defaults() {
        let p = NodeProfile::parity(
            key(),
            "Parity/v1.10.6".into(),
            Chain::new(ChainConfig::mainnet(), 100),
        );
        assert_eq!(p.max_peers, 50);
        assert_eq!(p.metric, Metric::ParityByteSum);
        assert_eq!(p.tx_fanout(49), 7);
        assert_eq!(p.tx_fanout(50), 8); // ceil(sqrt(50))
    }

    #[test]
    fn spammer_reports_genesis_head() {
        let p = NodeProfile::spammer(key(), Chain::new(ChainConfig::mainnet(), 5_000_000), 60_000);
        match &p.service {
            ServiceKind::Eth { chain } => assert_eq!(chain.head, 0),
            _ => panic!(),
        }
        assert!(p.identity_rotation_ms.is_some());
        assert!(p.client_id.starts_with("ethereumjs"));
    }

    #[test]
    fn our_status_reflects_chain() {
        let chain = Chain::new(ChainConfig::mainnet(), 1000);
        let p = NodeProfile::geth(key(), "Geth/test".into(), chain.clone());
        let st = p.status().expect("eth node has a status");
        assert_eq!(st.network_id, 1);
        assert_eq!(st.genesis_hash, ethwire::MAINNET_GENESIS);
        assert_eq!(st.best_hash, chain.best_hash());
        assert_eq!(st.total_difficulty, chain.total_difficulty());
    }

    #[test]
    fn light_and_other_nodes_have_no_status() {
        let light = NodeProfile::light(key(), "les".into(), Capability::new("les", 2));
        assert!(light.status().is_none());
    }

    #[test]
    fn node_id_derives_from_key() {
        let p = NodeProfile::geth(key(), "x".into(), Chain::new(ChainConfig::mainnet(), 1));
        assert_eq!(p.node_id(), NodeId::from_secret_key(&key()));
    }
}
