//! The synthetic DEVp2p ecosystem ("world") the crawler measures.
//!
//! The paper measured the live 2018 network; this crate builds its stand-in
//! (DESIGN.md documents the substitution): a population of behavioral node
//! models running the *real* protocol crates — discv4 discovery, RLPx
//! encryption, DEVp2p sessions, eth status/header exchange — over the
//! `netsim` discrete-event simulator.
//!
//! Populations are sampled from the marginals the paper reports:
//!
//! * client mix (Table 4), version mixes and release schedules (Table 5,
//!   Fig 10),
//! * DEVp2p service diversity — bzz/les/shh/exp/… (Table 3),
//! * networkID / genesis-hash tail (Fig 9),
//! * geography and AS mix (Fig 12/13),
//! * freshness lag including Byzantium-stuck nodes (Fig 14),
//! * churn, NAT'd unreachable nodes, and the abusive node-ID spammers that
//!   §5.4's sanitization pipeline removes.
//!
//! Crucially the crawler never reads this ground truth: it must rediscover
//! everything through the wire, exactly like NodeFinder did.
#![forbid(unsafe_code)]

mod clients;
mod node;
mod releases;
mod stats;
mod wire;
pub mod world;

pub use clients::{NodeProfile, ServiceKind};
pub use node::EthNode;
pub use releases::{is_stable_build, parse_client_id};
pub use stats::NodeStats;
pub use wire::{PeerConn, WireEvent};
pub use world::{World, WorldConfig};
