//! RLPx node discovery, protocol version 4 ("discv4").
//!
//! Discovery runs over UDP. Every packet is
//!
//! ```text
//! hash(32) ‖ signature(65) ‖ packet-type(1) ‖ RLP(packet-data)
//! ```
//!
//! where `hash = keccak256(signature ‖ type ‖ data)` guards integrity and
//! `signature` is a recoverable secp256k1 signature over
//! `keccak256(type ‖ data)` — the receiver *recovers the sender's node ID
//! from the signature*, which is why spoofing node IDs at the discovery
//! layer requires a keypair per identity.
//!
//! Four packet types exist: PING, PONG, FINDNODE, NEIGHBORS. A node's
//! FINDNODE queries are answered only within 24 h of a PING/PONG exchange
//! (the *endpoint proof*, or "bond") in either direction: it answered our
//! PING, or it PINGed us. Each node keeps one bond entry per peer for both
//! directions.
//!
//! The [`Discv4`] service is sans-IO: the caller feeds incoming datagrams
//! and a clock into it and ships out the [`Outgoing`] datagrams it returns.
//! Both the network simulator and (in principle) a real UDP socket can
//! drive it.
#![forbid(unsafe_code)]
// Unit tests may panic on impossible states; production code may not.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod packet;
mod service;

pub use packet::{decode_packet, encode_packet, Packet, PacketError, MAX_NEIGHBORS_PER_PACKET};
pub use service::{Config, Discv4, Event, Outgoing, Stats};
