//! A sparse, deterministic blockchain model.
//!
//! Simulated nodes need to answer STATUS and GET_BLOCK_HEADERS queries for
//! arbitrary heights without materializing millions of headers. `Chain`
//! synthesizes any header on demand from `(chain_seed, height)`; headers
//! are self-consistent (each one's `parent_hash` equals the hash of the
//! synthesized parent) and two chains with the same seed agree bit-for-bit,
//! so independently-simulated nodes of one network serve identical data.

use ethcrypto::keccak256;
use rlp::{Rlp, RlpStream};

/// A block header carrying the fields the measurement pipeline actually
/// inspects (§2.3): parent link, height, difficulty, timestamp, miner, gas
/// limit, and the free-form `extra_data` used for DAO-fork detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the parent block.
    pub parent_hash: [u8; 32],
    /// Block height.
    pub number: u64,
    /// Unix timestamp.
    pub timestamp: u64,
    /// Block difficulty.
    pub difficulty: u64,
    /// Gas limit.
    pub gas_limit: u64,
    /// Miner (coinbase) address, 20 bytes.
    pub miner: [u8; 20],
    /// Extra data — pro-fork blocks carry [`crate::DAO_FORK_EXTRA`] at the
    /// fork height.
    pub extra_data: Vec<u8>,
}

impl BlockHeader {
    /// The header's hash: keccak-256 of its RLP encoding.
    pub fn hash(&self) -> [u8; 32] {
        keccak256(&rlp::encode(self))
    }
}

impl rlp::Encodable for BlockHeader {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.begin_list(7);
        s.append(&self.parent_hash);
        s.append(&self.number);
        s.append(&self.timestamp);
        s.append(&self.difficulty);
        s.append(&self.gas_limit);
        s.append(&self.miner);
        s.append(&self.extra_data.as_slice());
    }
}

impl rlp::Decodable for BlockHeader {
    fn rlp_decode(r: &Rlp<'_>) -> Result<Self, rlp::RlpError> {
        // conformance: strict -- header layout is consensus-fixed at 7 fields; a count mismatch means corruption, not EIP-8 version skew
        if r.item_count()? != 7 {
            return Err(rlp::RlpError::Custom("header needs 7 fields"));
        }
        Ok(BlockHeader {
            parent_hash: r.at(0)?.as_array()?,
            number: r.at(1)?.as_val()?,
            timestamp: r.at(2)?.as_val()?,
            difficulty: r.at(3)?.as_val()?,
            gas_limit: r.at(4)?.as_val()?,
            miner: r.at(5)?.as_array()?,
            extra_data: r.at(6)?.as_val()?,
        })
    }
}

impl rlp::EncodableListElem for BlockHeader {}
impl rlp::DecodableListElem for BlockHeader {}

/// Static description of a blockchain a node can follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainConfig {
    /// Network ID carried in STATUS.
    pub network_id: u64,
    /// The genesis hash *advertised* in STATUS. Decoupled from the
    /// synthesized header chain (see module docs).
    pub genesis_hash: [u8; 32],
    /// Seed making this chain's synthesized headers unique. Chains that
    /// must agree (all Mainnet nodes) share a seed.
    pub chain_seed: u64,
    /// Whether this chain adopted the DAO fork (Mainnet yes, Classic no).
    pub dao_fork_support: bool,
}

impl ChainConfig {
    /// The mainstream Ethereum chain.
    pub fn mainnet() -> ChainConfig {
        ChainConfig {
            network_id: crate::MAINNET_NETWORK_ID,
            genesis_hash: crate::MAINNET_GENESIS,
            chain_seed: 0x006d_6169_6e6e_6574, // "mainnet"
            dao_fork_support: true,
        }
    }

    /// Ethereum Classic: same genesis, same network id, no DAO fork.
    pub fn classic() -> ChainConfig {
        ChainConfig {
            network_id: crate::MAINNET_NETWORK_ID,
            genesis_hash: crate::MAINNET_GENESIS,
            chain_seed: 0x0063_6c61_7373_6963, // "classic"
            dao_fork_support: false,
        }
    }

    /// An altcoin or private network with its own genesis.
    pub fn alt(network_id: u64, seed: u64) -> ChainConfig {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&network_id.to_be_bytes());
        material[8..].copy_from_slice(&seed.to_be_bytes());
        ChainConfig {
            network_id,
            genesis_hash: keccak256(&material),
            chain_seed: seed,
            dao_fork_support: false,
        }
    }
}

/// A node's view of a blockchain: config plus a head height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Chain parameters.
    pub config: ChainConfig,
    /// The height this node is synced to (stale nodes lag the network
    /// head — Fig 14 measures exactly this).
    pub head: u64,
}

impl Chain {
    /// A chain view at the given head.
    pub fn new(config: ChainConfig, head: u64) -> Chain {
        Chain { config, head }
    }

    /// Synthesize the header at `number`.
    ///
    /// All fields derive deterministically from `(chain_seed, number)`, so
    /// every node of a network serves bit-identical headers for a height
    /// regardless of when or how it is asked. The `parent_hash` field is a
    /// stable pseudo-link (a pure function of the parent's coordinates, not
    /// the keccak of the parent's full RLP) — true transitive linkage would
    /// make random-height synthesis O(height). Nothing in the measurement
    /// pipeline validates linkage; NodeFinder inspects only `extra_data`
    /// at the DAO height and the head hash.
    pub fn header(&self, number: u64) -> BlockHeader {
        self.make_header(number, self.pseudo_link(number))
    }

    // The stable pseudo parent-hash for the block at `number`.
    fn pseudo_link(&self, number: u64) -> [u8; 32] {
        if number == 0 {
            return [0u8; 32];
        }
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&self.config.chain_seed.to_be_bytes());
        material[8..].copy_from_slice(&(number - 1).to_be_bytes());
        keccak256(&material)
    }

    fn make_header(&self, number: u64, parent_hash: [u8; 32]) -> BlockHeader {
        let mut miner = [0u8; 20];
        let m = keccak256(&number.to_be_bytes());
        miner.copy_from_slice(&m[..20]);
        let extra_data = if number == crate::DAO_FORK_BLOCK && self.config.dao_fork_support {
            crate::DAO_FORK_EXTRA.to_vec()
        } else {
            Vec::new()
        };
        BlockHeader {
            parent_hash,
            number,
            timestamp: 1_438_269_988 + number * 14, // ~14s block time from genesis era
            difficulty: 131_072 + number * 1_000,
            gas_limit: 8_000_000,
            miner,
            extra_data,
        }
    }

    /// Hash of the head block — the STATUS `bestHash`.
    pub fn best_hash(&self) -> [u8; 32] {
        self.header(self.head).hash()
    }

    /// Cumulative difficulty at the head (sum of the linear-difficulty
    /// schedule in closed form).
    pub fn total_difficulty(&self) -> u128 {
        let n = self.head as u128;
        131_072 * (n + 1) + 1_000 * n * (n + 1) / 2
    }

    /// Serve a GET_BLOCK_HEADERS request: up to `max` headers starting at
    /// `start`, stepping `skip+1`, optionally descending. Heights beyond
    /// the head are not served.
    pub fn headers(&self, start: u64, max: usize, skip: u64, reverse: bool) -> Vec<BlockHeader> {
        let step = skip + 1;
        let mut out = Vec::with_capacity(max.min(1024));
        let mut n = start;
        for _ in 0..max.min(1024) {
            if n > self.head {
                break;
            }
            out.push(self.header(n));
            if reverse {
                match n.checked_sub(step) {
                    Some(next) => n = next,
                    None => break,
                }
            } else {
                n += step;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_rlp_roundtrip() {
        let chain = Chain::new(ChainConfig::mainnet(), 100);
        let h = chain.header(42);
        let bytes = rlp::encode(&h);
        assert_eq!(rlp::decode::<BlockHeader>(&bytes).unwrap(), h);
    }

    #[test]
    fn headers_deterministic_across_nodes() {
        let a = Chain::new(ChainConfig::mainnet(), 5_000_000);
        let b = Chain::new(ChainConfig::mainnet(), 4_000_000); // different head
        assert_eq!(a.header(1_000_000), b.header(1_000_000));
        assert_eq!(a.header(0), b.header(0));
    }

    #[test]
    fn different_chains_differ() {
        let main = Chain::new(ChainConfig::mainnet(), 100);
        let classic = Chain::new(ChainConfig::classic(), 100);
        assert_ne!(main.header(50).hash(), classic.header(50).hash());
        // but both advertise the same genesis hash!
        assert_eq!(main.config.genesis_hash, classic.config.genesis_hash);
    }

    /// NodeFinder's DAO check, asked of a chain the way a peer is asked:
    /// does the fork-height header it serves carry the pro-fork marker?
    fn proves_dao_fork(chain: &Chain) -> bool {
        let served = chain.headers(crate::DAO_FORK_BLOCK, 1, 0, false);
        served
            .first()
            .is_some_and(|h| h.extra_data == crate::DAO_FORK_EXTRA)
    }

    #[test]
    fn dao_fork_detection() {
        let main = Chain::new(ChainConfig::mainnet(), crate::DAO_FORK_BLOCK + 10);
        let classic = Chain::new(ChainConfig::classic(), crate::DAO_FORK_BLOCK + 10);
        assert!(proves_dao_fork(&main));
        assert!(!proves_dao_fork(&classic));
        assert_eq!(
            main.header(crate::DAO_FORK_BLOCK).extra_data,
            crate::DAO_FORK_EXTRA
        );
        assert!(classic.header(crate::DAO_FORK_BLOCK).extra_data.is_empty());
    }

    #[test]
    fn pre_fork_node_cannot_prove_fork() {
        let young = Chain::new(ChainConfig::mainnet(), 1_000);
        assert!(!proves_dao_fork(&young));
    }

    #[test]
    fn headers_request_forward() {
        let chain = Chain::new(ChainConfig::mainnet(), 1000);
        let hs = chain.headers(10, 5, 0, false);
        assert_eq!(hs.len(), 5);
        assert_eq!(hs[0].number, 10);
        assert_eq!(hs[4].number, 14);
        // the same heights served again (e.g. to another peer) are identical
        let hs2 = chain.headers(12, 3, 0, false);
        assert_eq!(hs2[0], hs[2]);
        // pseudo-links are stable and distinct per height
        assert_ne!(hs[0].parent_hash, hs[1].parent_hash);
        assert_eq!(chain.header(11).parent_hash, hs[1].parent_hash);
    }

    #[test]
    fn headers_request_with_skip_and_reverse() {
        let chain = Chain::new(ChainConfig::mainnet(), 1000);
        let hs = chain.headers(100, 3, 9, false);
        assert_eq!(
            hs.iter().map(|h| h.number).collect::<Vec<_>>(),
            vec![100, 110, 120]
        );
        let hs = chain.headers(100, 3, 9, true);
        assert_eq!(
            hs.iter().map(|h| h.number).collect::<Vec<_>>(),
            vec![100, 90, 80]
        );
        // reverse past zero stops cleanly
        let hs = chain.headers(5, 10, 9, true);
        assert_eq!(hs.iter().map(|h| h.number).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn headers_beyond_head_not_served() {
        let chain = Chain::new(ChainConfig::mainnet(), 10);
        let hs = chain.headers(8, 10, 0, false);
        assert_eq!(hs.len(), 3); // 8, 9, 10
    }

    #[test]
    fn total_difficulty_monotonic() {
        let c1 = Chain::new(ChainConfig::mainnet(), 100);
        let c2 = Chain::new(ChainConfig::mainnet(), 101);
        assert!(c2.total_difficulty() > c1.total_difficulty());
    }

    #[test]
    fn best_hash_tracks_head() {
        let c1 = Chain::new(ChainConfig::mainnet(), 100);
        let c2 = Chain::new(ChainConfig::mainnet(), 101);
        assert_ne!(c1.best_hash(), c2.best_hash());
        assert_eq!(c1.best_hash(), c1.header(100).hash());
    }

    #[test]
    fn alt_chains_have_distinct_genesis() {
        let a = ChainConfig::alt(2018, 1);
        let b = ChainConfig::alt(2018, 2);
        let c = ChainConfig::alt(99, 1);
        assert_ne!(a.genesis_hash, b.genesis_hash);
        assert_ne!(a.genesis_hash, c.genesis_hash);
        assert_ne!(a.genesis_hash, crate::MAINNET_GENESIS);
    }
}
