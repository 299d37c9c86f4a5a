//! # ethereum-p2p — a reproduction of *Measuring Ethereum Network Peers* (IMC 2018)
//!
//! This umbrella crate re-exports the full workspace: the Ethereum P2P
//! protocol stack built from scratch, the NodeFinder measurement crawler,
//! and a deterministic network simulator standing in for the live
//! Internet. The analysis pipeline that regenerates the paper's tables and
//! figures lives in the `bench` crate, beside the `repro` binary that runs
//! it.
//!
//! ## Layer map (paper §2)
//!
//! | Layer | Crate | What it implements |
//! |---|---|---|
//! | identity | [`enode`] | 512-bit node IDs (secp256k1 keys), `enode://` URLs |
//! | discovery | [`discv4`] + [`kad`] | signed UDP packets, k-buckets, iterative lookup, **both** XOR metrics (§6.3) |
//! | transport | [`rlpx`] | ECIES handshake, AES-CTR + keccak-MAC frames |
//! | session | [`devp2p`] | HELLO/DISCONNECT, capability negotiation |
//! | application | [`ethwire`] | eth/62-63 STATUS, headers, DAO-fork check |
//! | crypto | [`ethcrypto`] | keccak, SHA-256, HMAC, AES, secp256k1 — no external crypto |
//! | substrate | [`netsim`] | deterministic discrete-event network |
//! | world | [`ethpop`] | behavioral Geth/Parity/light/spammer populations |
//! | **contribution** | [`nodefinder`] | the crawler + §5.4 sanitization |
//! | evaluation | `bench` (its `analysis` module) | Tables 1–6, Figures 2–14 |
//! | robustness | [`adversary`] | Byzantine peers for fault-injection tests |
//! | observability | [`obs`] | deterministic sim-time tracing, metrics & flight recorder |
//!
//! ## Quick start
//!
//! ```
//! use ethereum_p2p::prelude::*;
//!
//! // Build a tiny world and let a crawler loose on it.
//! let config = WorldConfig { n_nodes: 12, duration_ms: 60_000, spammer_ips: 0,
//!                            udp_loss: 0.0, ..WorldConfig::default() };
//! let mut world = World::build(config);
//! let key = SecretKey::from_bytes(&[42u8; 32]).unwrap();
//! let crawler = NodeFinder::new(key, CrawlerConfig::default(), world.bootstrap.clone());
//! let addr = HostAddr::new(std::net::Ipv4Addr::new(192, 17, 100, 1), 30303);
//! let host = world.sim.add_host(addr, HostMeta::default_cloud(), Box::new(crawler));
//! world.sim.schedule_start(host, 0);
//! world.sim.run_until(60_000);
//!
//! let crawler = world.sim.remove_host_behaviour(host).unwrap()
//!     .into_any().downcast::<NodeFinder>().unwrap();
//! let store = DataStore::from_log(&crawler.log);
//! assert!(store.total_ids() > 0);
//! ```
//!
//! See `examples/` for fuller scenarios and `crates/bench` for the
//! `repro` binary that regenerates every table and figure.
#![forbid(unsafe_code)]

pub use adversary;
pub use devp2p;
pub use discv4;
pub use enode;
pub use ethcrypto;
pub use ethpop;
pub use ethwire;
pub use kad;
pub use netsim;
pub use nodefinder;
pub use obs;
pub use rlp;
pub use rlpx;

/// The names most programs need.
pub mod prelude {
    pub use devp2p::{Capability, DisconnectReason, Hello};
    pub use discv4::Discv4;
    pub use enode::{Endpoint, NodeId, NodeRecord};
    pub use ethcrypto::secp256k1::SecretKey;
    pub use ethpop::world::{TruthKind, World, WorldConfig};
    pub use ethpop::{EthNode, NodeProfile};
    pub use ethwire::{Chain, ChainConfig, EthMessage, Status};
    pub use kad::{Metric, RoutingTable};
    pub use netsim::{Host, HostAddr, HostMeta, NetSim, SimConfig};
    pub use nodefinder::{CrawlerConfig, DataStore, NodeFinder, SanitizeParams};
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        // Spot-check the cross-crate surface stays wired together.
        let id = crate::enode::NodeId([1u8; 64]);
        assert_eq!(id.kad_hash(), crate::ethcrypto::keccak256(&[1u8; 64]));
        assert_eq!(crate::ethwire::MAINNET_NETWORK_ID, 1);
    }
}
