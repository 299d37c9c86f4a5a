//! secp256k1 elliptic-curve operations: keys, ECDSA with public-key
//! recovery, and ECDH — the identity and authentication layer of RLPx.
//!
//! DEVp2p node IDs *are* secp256k1 public keys (the 64-byte uncompressed
//! `x || y` form), discv4 packets are ECDSA-signed with recoverable
//! signatures so receivers learn the sender's identity from the packet
//! itself, and the RLPx handshake derives its session keys from an ECDH
//! shared secret.

pub mod field;
pub mod point;

mod ecdsa;
mod memo;
mod scalar;

pub use ecdsa::{recover, RecoverableSignature, Signature};
pub use field::Fe;
pub use memo::{fit_memo, id_hash, memo_stats, MemoStats, TableStats};
pub use point::{double_scalar_mul, scalar_mul, scalar_mul_generator, Affine};

use crate::u256::U256;
use crate::CryptoError;

/// A secp256k1 secret key (scalar in `[1, n-1]`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    pub(crate) scalar: U256,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // never print key material
        write!(f, "SecretKey(..)")
    }
}

/// A secp256k1 public key (a non-identity curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    pub(crate) point: Affine,
}

impl SecretKey {
    /// Parse a 32-byte big-endian scalar; rejects 0 and values >= n.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<SecretKey, CryptoError> {
        let scalar = U256::from_be_bytes(bytes);
        if scalar.is_zero() || scalar.ge(&point::N) {
            return Err(CryptoError::InvalidSecretKey);
        }
        Ok(SecretKey { scalar })
    }

    /// Generate a fresh random key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> SecretKey {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes[..]);
            if let Ok(sk) = SecretKey::from_bytes(&bytes) {
                return sk;
            }
        }
    }

    /// Serialize the scalar as 32 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.scalar.to_be_bytes()
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            point: memo::public_point(&self.scalar),
        }
    }

    /// ECDSA-sign a 32-byte digest, producing a recoverable signature.
    ///
    /// The nonce is derived deterministically (RFC 6979 style, HMAC-SHA256)
    /// so signing is reproducible and never leaks the key through a bad RNG.
    pub fn sign_recoverable(&self, digest: &[u8; 32]) -> RecoverableSignature {
        ecdsa::sign(self, digest)
    }

    /// ECDH: the x coordinate of `self * peer_point`, as used by RLPx
    /// (NIST-style "shared secret = x coordinate" agreement).
    pub fn ecdh(&self, peer: &PublicKey) -> Result<[u8; 32], CryptoError> {
        // `a*B == b*A`, so the shared secret is a pure function of the
        // unordered public-key pair: whichever side computes it first
        // populates the cache for the other.
        let own_x = memo::x_bytes(&memo::public_point(&self.scalar))
            .ok_or(CryptoError::InvalidSecretKey)?;
        let peer_x = memo::x_bytes(&peer.point).ok_or(CryptoError::InvalidPublicKey)?;
        let key = memo::ecdh_key(own_x, peer_x);
        if let Some(x) = memo::ecdh_get(&key) {
            return Ok(x);
        }
        // A peer key derived on this thread is `±b*G` for a `b` the pubkey
        // memo still holds, and `a*B = ±(a*b)*G` has the same x: one comb
        // multiplication. Any other key pays the variable-base one.
        let shared = match memo::pubkey_log(&peer_x) {
            Some(b) => point::scalar_mul_generator(&scalar::mul_mod_n(&self.scalar, &b)),
            None => point::scalar_mul(&self.scalar, &peer.point),
        };
        let x = memo::x_bytes(&shared).ok_or(CryptoError::InvalidPublicKey)?;
        memo::ecdh_put(key, x);
        Ok(x)
    }
}

impl PublicKey {
    /// Parse the 64-byte uncompressed `x || y` form (DEVp2p node ID form).
    pub fn from_xy_bytes(bytes: &[u8; 64]) -> Result<PublicKey, CryptoError> {
        let point = Affine::from_xy_bytes(bytes).ok_or(CryptoError::InvalidPublicKey)?;
        if point.is_infinity() {
            return Err(CryptoError::InvalidPublicKey);
        }
        Ok(PublicKey { point })
    }

    /// Serialize to the 64-byte uncompressed `x || y` form.
    pub fn to_xy_bytes(&self) -> [u8; 64] {
        self.point
            .to_xy_bytes()
            .expect("public keys are finite points")
    }

    /// Verify a (non-recoverable) signature over a digest.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        ecdsa::verify(self, digest, sig)
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Affine {
        &self.point
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secret_key_rejects_zero_and_order() {
        assert!(SecretKey::from_bytes(&[0u8; 32]).is_err());
        let n_bytes = point::N.to_be_bytes();
        assert!(SecretKey::from_bytes(&n_bytes).is_err());
        let mut nm1 = point::N;
        nm1 = nm1.wrapping_sub(&U256::ONE);
        assert!(SecretKey::from_bytes(&nm1.to_be_bytes()).is_ok());
    }

    #[test]
    fn public_key_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let sk = SecretKey::random(&mut rng);
            let pk = sk.public_key();
            let bytes = pk.to_xy_bytes();
            assert_eq!(PublicKey::from_xy_bytes(&bytes).unwrap(), pk);
        }
    }

    #[test]
    fn ecdh_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = SecretKey::random(&mut rng);
        let b = SecretKey::random(&mut rng);
        let s1 = a.ecdh(&b.public_key()).unwrap();
        let s2 = b.ecdh(&a.public_key()).unwrap();
        assert_eq!(s1, s2);
        let c = SecretKey::random(&mut rng);
        assert_ne!(s1, c.ecdh(&b.public_key()).unwrap());
    }

    #[test]
    fn known_public_key() {
        // secret key 1 -> public key is the generator itself
        let mut one = [0u8; 32];
        one[31] = 1;
        let sk = SecretKey::from_bytes(&one).unwrap();
        assert_eq!(sk.public_key().point, Affine::generator());
    }

    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("memo-less thread panicked"))
    }

    /// `ecdh` has three ways to an answer — the comb when the pubkey memo
    /// knows the peer's discrete log, the variable-base multiplication when
    /// it does not, the pair memo on any later call — and each must give
    /// `x(a*B)` as the memo-free `point::scalar_mul` computes it. A memo
    /// is per thread, so every case gets threads that have seen nothing.
    /// Across `case % 4` the peer is `B` or `(x, p − y)` and the log the
    /// memo learned is `b` or `n − b`: x is blind to both signs.
    #[test]
    fn ecdh_agrees_on_all_three_paths() {
        let mut rng = StdRng::seed_from_u64(0xecd4);
        let scalar_key = |k: &U256| SecretKey::from_bytes(&k.to_be_bytes()).unwrap();
        let mut edges: Vec<SecretKey> = scalar::glv_edge_scalars()
            .iter()
            .filter(|k| !k.is_zero())
            .map(scalar_key)
            .collect();
        edges.push(scalar_key(&point::N.wrapping_sub(&U256::from_u64(2))));
        let mut pairs: Vec<(SecretKey, SecretKey)> = (0..200)
            .map(|_| (SecretKey::random(&mut rng), SecretKey::random(&mut rng)))
            .collect();
        for e in &edges {
            pairs.push((*e, SecretKey::random(&mut rng)));
            pairs.push((SecretKey::random(&mut rng), *e));
            pairs.extend(edges.iter().map(|f| (*e, *f)));
        }

        for (case, (a, b)) in pairs.iter().enumerate() {
            let b_point = point::scalar_mul_generator(&b.scalar);
            let expected = memo::x_bytes(&point::scalar_mul(&a.scalar, &b_point)).unwrap();
            let neg_a = scalar_key(&point::N.wrapping_sub(&a.scalar));
            let neg_b = scalar_key(&point::N.wrapping_sub(&b.scalar));
            let peer_x = memo::x_bytes(&b_point).unwrap();
            let (first, second) = if case & 1 == 0 {
                (b_point, b_point.neg())
            } else {
                (b_point.neg(), b_point)
            };
            let first = first.to_xy_bytes().unwrap();
            let second = second.to_xy_bytes().unwrap();
            let derived = if case & 2 == 0 { b } else { &neg_b };

            let (known, again) = on_fresh_thread(|| {
                let first = PublicKey::from_xy_bytes(&first).unwrap();
                derived.public_key();
                assert!(memo::pubkey_log(&peer_x).is_some());
                (a.ecdh(&first).unwrap(), a.ecdh(&first).unwrap())
            });
            assert_eq!(known, expected, "known-log path, case {case}");
            assert_eq!(again, expected, "memo hit, case {case}");

            // This thread sees the peer as wire bytes only, so its memo
            // cannot know the log (except through `a`'s own derivation, in
            // the edge pairs where x(a) = x(b)).
            let (foreign, hit, hit_neg_own) = on_fresh_thread(|| {
                let first = PublicKey::from_xy_bytes(&first).unwrap();
                let second = PublicKey::from_xy_bytes(&second).unwrap();
                (
                    a.ecdh(&first).unwrap(),
                    a.ecdh(&second).unwrap(),
                    neg_a.ecdh(&first).unwrap(),
                )
            });
            assert_eq!(foreign, expected, "foreign path, case {case}");
            assert_eq!(hit, expected, "memo hit on the negated peer, case {case}");
            assert_eq!(hit_neg_own, expected, "memo hit for n − a, case {case}");
        }
    }
}
