//! Node identity on the DEVp2p network.
//!
//! A DEVp2p node is identified by a **512-bit node ID**, which is the
//! uncompressed secp256k1 public key (`x || y`, 64 bytes, no prefix) of the
//! node's identity key. Nodes advertise themselves as `enode://` URLs:
//!
//! ```text
//! enode://<128 hex chars of node id>@<ip>:<tcp-port>[?discport=<udp-port>]
//! ```
//!
//! This crate provides [`NodeId`], the UDP/TCP [`Endpoint`], and the
//! combined [`NodeRecord`] used by discovery, dialing, and the crawler's
//! data store.
#![forbid(unsafe_code)]

mod id;
mod intern;
mod record;
mod url;

pub use id::NodeId;
pub use intern::Interner;
pub use record::{Endpoint, NodeRecord};
