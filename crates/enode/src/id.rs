//! 512-bit node identifiers.

use ethcrypto::secp256k1::{id_hash, PublicKey, SecretKey};
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::fmt;

/// A DEVp2p node ID: the 64-byte uncompressed secp256k1 public key of the
/// node's identity keypair.
///
/// Unlike Kademlia's 160-bit IDs, RLPx IDs are 512-bit, and the XOR distance
/// metric is computed over the **Keccak-256 hash** of the ID (see
/// [`NodeId::kad_hash`]) rather than the ID itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub [u8; 64]);

/// Image: the raw 64 bytes. Any value is a valid id (remote peers
/// advertise arbitrary ones); whether it is also a curve point is
/// checked where it is used as a key.
impl Snap for NodeId {
    fn snap(&self, w: &mut SnapWriter) {
        w.raw(&self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<NodeId, SnapError> {
        r.array().map(NodeId)
    }
}

impl NodeId {
    /// The all-zero ID; not a valid public key, used only as a sentinel in
    /// tests and table initialization.
    pub const ZERO: NodeId = NodeId([0u8; 64]);

    /// Derive the node ID from a public key.
    pub fn from_public_key(pk: &PublicKey) -> NodeId {
        NodeId(pk.to_xy_bytes())
    }

    /// Derive the node ID for a secret key.
    pub fn from_secret_key(sk: &SecretKey) -> NodeId {
        Self::from_public_key(&sk.public_key())
    }

    /// Try to interpret the ID as a public key (checks the point is on the
    /// curve). Spammer-generated random IDs typically fail this.
    pub fn to_public_key(&self) -> Option<PublicKey> {
        PublicKey::from_xy_bytes(&self.0).ok()
    }

    /// Keccak-256 of the ID — the value the discovery distance metric is
    /// computed over. Answered from the `ethcrypto` memo's ID table, so an
    /// ID this thread has hashed before is not hashed again.
    pub fn kad_hash(&self) -> [u8; 32] {
        id_hash(&self.0)
    }

    /// Render as 128 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(128);
        for b in self.0 {
            out.push(NIBBLES[usize::from(b >> 4)] as char);
            out.push(NIBBLES[usize::from(b & 0xf)] as char);
        }
        out
    }

    /// Parse from 128 hex characters.
    pub fn from_hex(s: &str) -> Option<NodeId> {
        if s.len() != 128 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 64];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(NodeId(out))
    }

    /// Abbreviated form for logs (first 8 hex chars, like Geth's logger).
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({}…)", self.short())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl From<[u8; 64]> for NodeId {
    fn from(bytes: [u8; 64]) -> Self {
        NodeId(bytes)
    }
}

impl AsRef<[u8]> for NodeId {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl serde::Serialize for NodeId {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_hex())
    }
}

impl<'de> serde::Deserialize<'de> for NodeId {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        NodeId::from_hex(&s).ok_or_else(|| serde::de::Error::custom("invalid node id hex"))
    }
}

impl rlp::Encodable for NodeId {
    fn rlp_append(&self, s: &mut rlp::RlpStream) {
        s.append_bytes(&self.0);
    }
}

impl rlp::Decodable for NodeId {
    fn rlp_decode(r: &rlp::Rlp<'_>) -> Result<Self, rlp::RlpError> {
        Ok(NodeId(r.as_array::<64>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethcrypto::keccak256;
    use ethcrypto::secp256k1::memo_stats;
    use proptest::prelude::*;

    /// The encoder `to_hex` replaced, kept as its oracle.
    fn format_hex(id: &NodeId) -> String {
        id.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn arb_id() -> impl Strategy<Value = NodeId> {
        proptest::collection::vec(any::<u8>(), 64)
            .prop_map(|v| NodeId(v.try_into().expect("64 bytes")))
    }

    proptest! {
        #[test]
        fn to_hex_is_the_format_encoder(id in arb_id()) {
            prop_assert_eq!(id.to_hex(), format_hex(&id));
            prop_assert_eq!(NodeId::from_hex(&id.to_hex()), Some(id));
        }
    }

    /// Past the ID table's eviction point, at the floor cap a fresh thread
    /// starts with, every hash is still the keccak of the bytes: first
    /// computed, then answered from the table, then computed again once
    /// evicted. The IDs are counters, not curve points (what a spammer
    /// advertises).
    #[test]
    fn kad_hash_is_keccak_past_the_memo_eviction_point() {
        std::thread::scope(|s| {
            s.spawn(|| {
                let cap = memo_stats().id_hash.cap;
                assert_eq!(cap, 4096, "a fresh thread starts at the floor cap");
                let id = |i: usize| {
                    let mut bytes = [0x5a; 64];
                    bytes[..8].copy_from_slice(&(i as u64).to_be_bytes());
                    NodeId(bytes)
                };
                assert!(id(0).to_public_key().is_none() && id(cap).to_public_key().is_none());
                let ids = 0..cap + cap / 2;
                // Forward, then back: the newest `cap` hit, the oldest were evicted.
                for i in ids.clone().chain(ids.rev()) {
                    assert_eq!(id(i).kad_hash(), keccak256(&id(i).0), "id {i}");
                }
                let stats = memo_stats().id_hash;
                assert_eq!(
                    (stats.hits, stats.evictions),
                    (cap as u64, cap as u64),
                    "{stats:?}"
                );
            });
        });
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(NodeId::from_hex("abcd").is_none());
        assert!(NodeId::from_hex(&"zz".repeat(64)).is_none());
        // multibyte UTF-8 of the right char count must not panic
        assert!(NodeId::from_hex(&"é".repeat(128)).is_none());
    }

    #[test]
    fn derived_from_key_is_valid_point() {
        let sk = SecretKey::from_bytes(&[9u8; 32]).unwrap();
        let id = NodeId::from_secret_key(&sk);
        assert!(id.to_public_key().is_some());
        assert_eq!(id.to_public_key().unwrap(), sk.public_key());
    }

    #[test]
    fn random_ids_are_rarely_valid_points() {
        // A random 64-byte string is a valid curve point only if y² = x³+7;
        // about half of x values have a solution but y must also match
        // exactly, making random hits essentially impossible.
        let id = NodeId([0x5au8; 64]);
        assert!(id.to_public_key().is_none());
    }

    #[test]
    fn kad_hash_is_keccak_of_bytes() {
        let id = NodeId([1u8; 64]);
        assert_eq!(id.kad_hash(), keccak256(&[1u8; 64]));
    }

    #[test]
    fn rlp_roundtrip() {
        let id = NodeId([7u8; 64]);
        let bytes = rlp::encode(&id);
        assert_eq!(rlp::decode::<NodeId>(&bytes).unwrap(), id);
    }

    #[test]
    fn serde_roundtrip() {
        let id = NodeId([0xabu8; 64]);
        let json = serde_json_encode(&id);
        assert_eq!(json.len(), 130); // 128 hex + quotes
    }

    // tiny local stand-in to avoid a serde_json dev-dependency here
    fn serde_json_encode(id: &NodeId) -> String {
        format!("\"{}\"", id.to_hex())
    }
}
