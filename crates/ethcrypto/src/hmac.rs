//! HMAC-SHA256 (RFC 2104), used by the ECIES message authentication tag and
//! by deterministic ECDSA nonce generation (RFC 6979).

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Incremental HMAC-SHA256.
///
/// A value is the *keyed state* — the SHA-256 midstates after the inner and
/// outer pads — plus whatever message has been absorbed since. Keying costs
/// two compressions, so a caller that MACs several messages under one key
/// (RFC 6979 does, twice per signature) keys once and clones.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Start a MAC with the given key (any length).
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let digest = sha256(key);
            key_block[..32].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        HmacSha256::keyed(&key_block)
    }

    /// Key with an already zero-padded (or hashed) block; `const`, so a
    /// fixed key's two midstates cost nothing at run time.
    pub(crate) const fn keyed(key_block: &[u8; BLOCK]) -> HmacSha256 {
        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        let mut i = 0;
        while i < BLOCK {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
            i += 1;
        }
        HmacSha256 {
            inner: Sha256::after_block(&ipad),
            outer: Sha256::after_block(&opad),
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 32-byte tag.
    pub fn finalize(mut self) -> [u8; 32] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `HMAC-SHA256(key, data)` in one call.
    fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
        let mut mac = HmacSha256::new(key);
        mac.update(data);
        mac.finalize()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// One keyed state, cloned per message: each clone carries the key and
    /// nothing of what another clone absorbed.
    #[test]
    fn rfc4231_case4_twice_from_one_keyed_state() {
        let key: Vec<u8> = (1u8..=25).collect();
        let keyed = HmacSha256::new(&key);
        for _ in 0..2 {
            let mut mac = keyed.clone();
            mac.update(&[0xcdu8; 50]);
            assert_eq!(
                hex(&mac.finalize()),
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
            );
        }
        let mut mac = keyed;
        mac.update(b"another message");
        assert_eq!(mac.finalize(), hmac_sha256(&key, b"another message"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"rlpx-session-key";
        let data: Vec<u8> = (0u8..200).collect();
        let mut mac = HmacSha256::new(key);
        for c in data.chunks(9) {
            mac.update(c);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, &data));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k1", b"msg1"), hmac_sha256(b"k1", b"msg2"));
    }
}
