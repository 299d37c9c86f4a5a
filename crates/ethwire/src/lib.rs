//! The Ethereum subprotocol (`eth/62` and `eth/63`) and a lightweight
//! blockchain model.
//!
//! After the DEVp2p HELLO exchange, `eth` peers swap STATUS messages
//! carrying protocol version, network ID, total difficulty, best hash, and
//! genesis hash (§2.3). Nodes on different networks or genesis hashes
//! disconnect — except that Ethereum Mainnet and Ethereum Classic **share**
//! a genesis hash, so telling them apart requires fetching the DAO fork
//! block (1,920,000) and inspecting its `extra_data`, which is exactly what
//! NodeFinder does before hanging up.
//!
//! The [`chain::Chain`] model is sparse: headers are synthesized
//! deterministically on demand rather than stored, which lets a simulated
//! node answer GET_BLOCK_HEADERS for any height without 5.5M headers of
//! state. Every node of a network serves bit-identical headers for a
//! height (parent-hash fields are stable pseudo-links, not transitive
//! hashes — see `chain::Chain::header`), and the *advertised* genesis hash
//! is decoupled so the model can advertise the real Mainnet constant.
#![forbid(unsafe_code)]
// Unit tests may panic on impossible states; production code may not.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod chain;
mod messages;
mod sync;

pub use chain::{Chain, ChainConfig};
pub use messages::{BlockId, EthMessage, EthMessageError, Status};
pub use sync::{serve_from_chain, SyncDriver, SyncMode};

/// The real Ethereum Mainnet genesis hash (`d4e567…cb8fa3`), advertised by
/// both Mainnet and Classic nodes.
pub const MAINNET_GENESIS: [u8; 32] = [
    0xd4, 0xe5, 0x67, 0x40, 0xf8, 0x76, 0xae, 0xf8, 0xc0, 0x10, 0xb8, 0x6a, 0x40, 0xd5, 0xf5, 0x67,
    0x45, 0xa1, 0x18, 0xd0, 0x90, 0x6a, 0x34, 0xe6, 0x9a, 0xec, 0x8c, 0x0d, 0xb1, 0xcb, 0x8f, 0xa3,
];

/// Mainnet network ID.
pub const MAINNET_NETWORK_ID: u64 = 1;

/// Height of the DAO hard fork (July 20th, 2016).
pub const DAO_FORK_BLOCK: u64 = 1_920_000;

/// `extra_data` marker carried by pro-fork blocks at the DAO fork height.
pub const DAO_FORK_EXTRA: &[u8] = b"dao-hard-fork";

/// Height of the Byzantium hard fork; §7.3 finds 141 nodes stuck at
/// 4,370,001 — the first post-fork block.
pub const BYZANTIUM_BLOCK: u64 = 4_370_000;

/// Approximate Mainnet head height during the paper's snapshot window
/// (April 23rd, 2018).
pub const SNAPSHOT_HEAD: u64 = 5_460_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_constant_formats_correctly() {
        let hex: String = MAINNET_GENESIS.iter().map(|b| format!("{b:02x}")).collect();
        assert!(hex.starts_with("d4e56740"));
        assert!(hex.ends_with("b1cb8fa3"));
    }
}
